package main

import (
	"fmt"
	"sort"

	"commongraph"
	"commongraph/internal/bench"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// scale is the input size of a run: bench.Default for measured runs, a
// miniature for the benchmark's own tests.
type scale struct {
	sizeFactor float64
	half       int // additions and deletions per transition (Table 4's 75K, scaled, halved)
}

func scaleFor(cfg config) scale {
	if cfg.tiny {
		return scale{half: 8}
	}
	p := bench.Default()
	return scale{sizeFactor: p.SizeFactor, half: p.Batch(75_000) / 2}
}

// standIn generates the named Table 2 stand-in graph at the run's scale
// from the stand-in's own seed, so every run works on the same graph, as
// the paper's runs do on a fixed dataset; the run's seed chooses the
// update stream and the operations. (With the run's seed mixed into the
// graph, the live heap moved by 10% and latencies by more from seed to
// seed.) A tiny run uses a 512-vertex R-MAT graph of the same skew
// instead.
func standIn(name string, cfg config) (int, []commongraph.Edge, error) {
	s, ok := gen.ByName(name)
	if !ok {
		return 0, nil, fmt.Errorf("unknown stand-in %q", name)
	}
	var rc gen.RMATConfig
	if cfg.tiny {
		rc = gen.DefaultRMAT(9, 4000, s.Seed)
	} else {
		f := scaleFor(cfg).sizeFactor
		rc = gen.DefaultRMAT(s.Scale, int(float64(s.Edges)*f), s.Seed)
		for ; f >= 2; f /= 2 {
			rc.Scale++
		}
	}
	n, edges := gen.RMAT(rc)
	return n, edges, nil
}

// history generates a consistent update stream over base: deletions of
// live edges and additions of absent ones, half each per transition.
func history(n int, base []commongraph.Edge, transitions, half int, seed uint64) (adds, dels [][]commongraph.Edge, err error) {
	trs, err := gen.Stream(n, graph.EdgeList(base), gen.StreamConfig{
		Transitions: transitions, Additions: half, Deletions: half, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	adds = make([][]commongraph.Edge, len(trs))
	dels = make([][]commongraph.Edge, len(trs))
	for i, tr := range trs {
		adds[i], dels[i] = tr.Additions, tr.Deletions
	}
	return adds, dels, nil
}

// byDegree returns the vertices of base ordered by out-degree, highest
// first (ties by id): the sources queries start from.
func byDegree(n int, base []commongraph.Edge) []commongraph.VertexID {
	deg := make([]int, n)
	for _, e := range base {
		deg[e.Src]++
	}
	vs := make([]commongraph.VertexID, n)
	for i := range vs {
		vs[i] = commongraph.VertexID(i)
	}
	sort.SliceStable(vs, func(i, j int) bool { return deg[vs[i]] > deg[vs[j]] })
	return vs
}

// checksum fingerprints a value array exactly as the engine's result
// checksums do, so reference values compare against reported checksums.
func checksum(vals []commongraph.Value) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vals {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}
