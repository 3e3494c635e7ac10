// Package core implements the paper's contribution: the CommonGraph
// representation of an evolving-graph window, the Direct-Hop evaluation
// schedule (§3.1), the Triangular Grid with Steiner-tree work sharing
// (§3.2, Algorithm 1), and the mutation-free evaluators built on overlay
// graphs (§4).
package core

import (
	"fmt"

	"commongraph/internal/delta"
	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// Window designates the snapshot range [From, To] (inclusive) of an
// evolving-graph store that a query targets.
type Window struct {
	Store *snapshot.Store
	From  int
	To    int
}

// Width returns the number of snapshots in the window.
func (w Window) Width() int { return w.To - w.From + 1 }

// Validate checks the window against its store.
func (w Window) Validate() error {
	if w.Store == nil {
		return fmt.Errorf("core: window has no store")
	}
	if w.From < 0 || w.To >= w.Store.NumVersions() || w.From > w.To {
		return fmt.Errorf("core: window [%d,%d] invalid for store with %d versions",
			w.From, w.To, w.Store.NumVersions())
	}
	return nil
}

// additions and deletions return the batch of window-relative transition t
// (snapshot From+t → From+t+1).
func (w Window) additions(t int) graph.EdgeList { return w.Store.Additions(w.From + t).Edges() }
func (w Window) deletions(t int) graph.EdgeList { return w.Store.Deletions(w.From + t).Edges() }

// Rep is the CommonGraph representation of a window: the common graph
// (edges present in every snapshot of the window) as an immutable CSR
// pair, plus one addition batch per snapshot that turns the common graph
// into that snapshot. Reaching any snapshot requires additions only —
// the paper's deletion-to-addition conversion.
type Rep struct {
	Window Window
	N      int
	// Common is the canonical common edge set E_c.
	Common graph.EdgeList
	// Base is E_c in traversal form; it is never mutated.
	Base *graph.Pair
	// Deltas[k] = E_{From+k} \ E_c: the Direct-Hop addition batch for the
	// k-th snapshot of the window.
	Deltas []*delta.Batch
}

// BuildRep constructs the CommonGraph representation of a window.
//
// E_c = E_From \ (∪ Δ−_t over the window's transitions): an edge fails to
// be in every snapshot exactly when it is deleted at some transition
// (covering delete-then-re-add) or first added mid-window.
func BuildRep(w Window) (*Rep, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	first, err := w.Store.GetVersion(w.From)
	if err != nil {
		return nil, err
	}
	width := w.Width()
	allDels := graph.EdgeList{}
	for t := 0; t < width-1; t++ {
		allDels = graph.Union(allDels, w.deletions(t))
	}
	common := graph.Minus(first, allDels)

	r := &Rep{
		Window: w,
		N:      w.Store.NumVertices(),
		Common: common,
		Base:   graph.NewPair(w.Store.NumVertices(), common),
		Deltas: make([]*delta.Batch, width),
	}
	// The per-snapshot delta evolves by the window's own batches:
	// D_0 = E_From \ E_c = E_From ∩ allDels, and
	// D_{k+1} = (D_k \ Δ−_k) ∪ Δ+_k  (added edges are never in E_c).
	// This keeps every step O(|D|) instead of materializing snapshots.
	cur := graph.Intersect(first, allDels)
	var err2 error
	if r.Deltas[0], err2 = delta.FromCanonical(cur); err2 != nil {
		return nil, err2
	}
	for k := 1; k < width; k++ {
		cur = graph.Union(graph.Minus(cur, w.deletions(k-1)), w.additions(k-1))
		if r.Deltas[k], err2 = delta.FromCanonical(cur); err2 != nil {
			return nil, err2
		}
	}
	return r, nil
}

// SnapshotGraph returns the overlay view of the window's k-th snapshot:
// the common base plus that snapshot's Direct-Hop delta. No mutation.
func (r *Rep) SnapshotGraph(k int) *delta.OverlayGraph {
	return delta.NewOverlayGraph(r.Base, delta.NewOverlay(r.N, r.Deltas[k]))
}

// TotalDeltaEdges sums the Direct-Hop addition batches — the total number
// of additions Direct-Hop processes (the "22 additions" of the paper's
// worked example).
func (r *Rep) TotalDeltaEdges() int64 {
	var total int64
	for _, d := range r.Deltas {
		total += int64(d.Len())
	}
	return total
}
