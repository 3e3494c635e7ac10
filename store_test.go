package commongraph

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"commongraph/internal/faults"
)

// TestPersistReopenDifferential is the acceptance differential: a graph
// persisted to disk and reopened — materialized and memory-mapped — must
// answer every query identically to the original under every evaluation
// strategy: same checksums, same reached counts, same per-vertex values.
func TestPersistReopenDifferential(t *testing.T) {
	g, n := buildEvolving(t, 101, 6, 60, 60)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenEvolvingGraph(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The mapped reopen serves its segments from read-only memory maps,
	// which stay valid until the store closes.
	ms, err := OpenStoreWith(dir, StoreOptions{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ms.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if !ms.Mapped() {
		t.Fatal("MapSegments requested but store is not mapped")
	}
	reopened := []struct {
		name string
		g    *EvolvingGraph
	}{{"materialized", r}, {"mapped", ms.Graph()}}
	last := g.NumSnapshots() - 1
	for _, in := range reopened {
		name, r := in.name, in.g
		if r.NumVertices() != n || r.NumSnapshots() != g.NumSnapshots() {
			t.Fatalf("%s reopened shape: n=%d snaps=%d, want n=%d snaps=%d",
				name, r.NumVertices(), r.NumSnapshots(), n, g.NumSnapshots())
		}
		for _, algo := range []Algorithm{BFS, SSSP} {
			for _, s := range Strategies() {
				req := Request{
					Query:    Query{Algorithm: algo, Source: 0},
					Window:   Window{From: 0, To: last},
					Strategy: s,
					Options:  Options{KeepValues: true},
				}
				want, err := g.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("%s/%v in-memory: %v", algo.Name(), s, err)
				}
				got, err := r.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("%s/%v %s reopen: %v", algo.Name(), s, name, err)
				}
				if len(got.Snapshots) != len(want.Snapshots) {
					t.Fatalf("%s/%v %s: %d snapshots, want %d", algo.Name(), s, name, len(got.Snapshots), len(want.Snapshots))
				}
				for k := range want.Snapshots {
					a, b := want.Snapshots[k], got.Snapshots[k]
					if a.Checksum != b.Checksum || a.Reached != b.Reached || a.Index != b.Index {
						t.Fatalf("%s/%v snapshot %d: %s reopen disagrees (checksum %016x vs %016x)",
							algo.Name(), s, k, name, a.Checksum, b.Checksum)
					}
					for v := 0; v < n; v++ {
						if a.Values[v] != b.Values[v] {
							t.Fatalf("%s/%v snapshot %d vertex %d: %v vs %s %v",
								algo.Name(), s, k, v, a.Values[v], name, b.Values[v])
						}
					}
				}
			}
		}
	}
}

// streamUpdate is one scripted raw update for the durable-ingest tests.
type streamUpdate struct {
	del  bool
	edge Edge
}

// script builds a deterministic 44-update stream over an empty graph:
// ten windows of [add, add, add-then-delete] (net two additions each)
// and one fully cancelling window, at batch size 4.
func script() []streamUpdate {
	var us []streamUpdate
	for i := 0; i < 10; i++ {
		a := Edge{Src: VertexID(2 * i), Dst: VertexID(2*i + 1), W: 1}
		b := Edge{Src: VertexID(2*i + 1), Dst: VertexID(2 * i), W: 2}
		c := Edge{Src: VertexID(2 * i), Dst: VertexID(63 - i), W: 3}
		us = append(us,
			streamUpdate{edge: a}, streamUpdate{edge: b},
			streamUpdate{edge: c}, streamUpdate{del: true, edge: c})
	}
	x := Edge{Src: 40, Dst: 41, W: 9}
	y := Edge{Src: 41, Dst: 42, W: 9}
	us = append(us,
		streamUpdate{edge: x}, streamUpdate{del: true, edge: x},
		streamUpdate{edge: y}, streamUpdate{del: true, edge: y})
	return us
}

func push(in *Ingestor, u streamUpdate) error {
	if u.del {
		return in.Delete(u.edge)
	}
	return in.Add(u.edge)
}

// referenceGraph replays the whole script through the in-memory ingestor.
func referenceGraph(t *testing.T, batch int) *EvolvingGraph {
	t.Helper()
	g := New(64, nil)
	in, err := g.Ingestor(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range script() {
		if err := push(in, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return g
}

func sameFinalSnapshot(t *testing.T, got, want *EvolvingGraph, what string) {
	t.Helper()
	if got.NumSnapshots() != want.NumSnapshots() {
		t.Fatalf("%s: %d snapshots, want %d", what, got.NumSnapshots(), want.NumSnapshots())
	}
	a, err := got.Snapshot(got.NumSnapshots() - 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Snapshot(want.NumSnapshots() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: final snapshot has %d edges, want %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: final snapshot edge %d is %v, want %v", what, i, a[i], b[i])
		}
	}
}

// TestDurableIngestMatchesInMemory runs the script through a durable
// ingestor and checks both the live graph and a fresh reopen against the
// in-memory reference — including the fully cancelling window, which
// must advance the WAL commit pointer without creating a snapshot.
func TestDurableIngestMatchesInMemory(t *testing.T) {
	want := referenceGraph(t, 4)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := New(64, nil).Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gs.Ingestor(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Ingestor(4); err == nil {
		t.Fatal("second concurrent ingestor allowed")
	}
	for _, u := range script() {
		if err := push(in, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	sameFinalSnapshot(t, gs.Graph(), want, "live durable graph")
	if got, wantAck := gs.Acknowledged(), uint64(len(script())); got != wantAck {
		t.Fatalf("acknowledged %d raw updates, want %d", got, wantAck)
	}
	// A closed ingestor frees the slot; its stream is over.
	if err := in.Add(Edge{Src: 1, Dst: 2, W: 1}); err == nil {
		t.Fatal("push after Close succeeded")
	}
	if _, err := gs.Ingestor(4); err != nil {
		t.Fatalf("ingestor slot not released by Close: %v", err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 0 {
		t.Fatalf("clean close left %d updates to replay", r.Recovered())
	}
	sameFinalSnapshot(t, r.Graph(), want, "reopened durable graph")
}

// TestDurableIngestCrashReplayMatrix kills the durable write path at
// each store boundary mid-stream, reopens the directory as a crashed
// process' successor would, resumes the stream from the position the
// store reports (Acknowledged + Recovered), and requires the final state
// to be byte-identical to the uninterrupted run — updates are applied
// exactly once no matter where the crash landed.
func TestDurableIngestCrashReplayMatrix(t *testing.T) {
	want := referenceGraph(t, 4)
	after := map[faults.Point]int{
		faults.StoreWALAppend:    13, // mid-stream push (one append per push)
		faults.StoreWALSync:      13, // post-write fsync of the same append
		faults.StoreSegmentWrite: 4,  // segment writes: one per non-empty window
		faults.StoreManifestSwap: 3,  // swaps: one per committed window
		faults.StoreWALRotate:    5,  // rotations: one per committed window
	}
	for p, skip := range after {
		t.Run(string(p), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "s")
			gs, err := New(64, nil).Persist(dir)
			if err != nil {
				t.Fatal(err)
			}
			in, err := gs.Ingestor(4)
			if err != nil {
				t.Fatal(err)
			}
			disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: p, After: skip, Times: 1}}})
			var failedAt = -1
			for i, u := range script() {
				if err := push(in, u); err != nil {
					if !errors.Is(err, faults.ErrInjected) {
						disarm()
						t.Fatalf("update %d: non-injected failure: %v", i, err)
					}
					failedAt = i
					break
				}
			}
			fired := faults.Hits(p) > skip
			disarm()
			if failedAt < 0 {
				// The post-commit WAL rotation is the one boundary whose
				// failure never surfaces: the manifest swap had already
				// durably committed the window, so the push succeeds and
				// the stream runs to completion.
				if p != faults.StoreWALRotate || !fired {
					t.Fatalf("point %s never fired", p)
				}
				if err := in.Close(); err != nil {
					t.Fatal(err)
				}
				sameFinalSnapshot(t, gs.Graph(), want, "live graph after tolerated trim failure")
				gs.Close()
				r, err := OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if got := int(r.Acknowledged()) + r.Recovered(); got != len(script()) {
					t.Fatalf("resume position %d after tolerated trim failure, want %d", got, len(script()))
				}
				sameFinalSnapshot(t, r.Graph(), want, "reopened graph after tolerated trim failure")
				return
			}
			gs.Close() // the crash: only the directory survives

			r, err := OpenStore(dir)
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", p, err)
			}
			defer r.Close()
			// The store's resume protocol: everything at or below
			// Acknowledged is in snapshots, the next Recovered updates
			// replay into the ingestor, the rest must be re-sent.
			// A failed push may still have journaled (or even committed)
			// its update before erroring, so resume can reach failedAt+1 —
			// but never beyond what the producer actually sent.
			resume := int(r.Acknowledged()) + r.Recovered()
			if resume > failedAt+1 {
				t.Fatalf("store claims %d updates consumed but only %d were ever pushed", resume, failedAt+1)
			}
			rin, err := r.Ingestor(4)
			if err != nil {
				t.Fatalf("replay ingestor after crash at %s: %v", p, err)
			}
			for i, u := range script()[resume:] {
				if err := push(rin, u); err != nil {
					t.Fatalf("resumed update %d: %v", resume+i, err)
				}
			}
			if err := rin.Close(); err != nil {
				t.Fatal(err)
			}
			sameFinalSnapshot(t, r.Graph(), want, "resumed graph")

			// And the recovered run itself reopens clean.
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := OpenEvolvingGraph(dir)
			if err != nil {
				t.Fatal(err)
			}
			sameFinalSnapshot(t, final, want, "final reopen")
		})
	}
}

// TestIngestorSeedFailureRetainsRecovered: if replaying the recovered
// window into a fresh ingestor fails (here: the segment write of the
// window's commit), the recovered updates must survive in the GraphStore
// so a retried Ingestor replays them — Recovered() promised they were
// replayable, and dropping them would durably lose acknowledged updates.
func TestIngestorSeedFailureRetainsRecovered(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := New(64, nil).Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gs.Ingestor(4)
	if err != nil {
		t.Fatal(err)
	}
	a := Edge{Src: 0, Dst: 1, W: 1}
	b := Edge{Src: 1, Dst: 2, W: 2}
	if err := in.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(b); err != nil {
		t.Fatal(err)
	}
	gs.Close() // crash mid-window: both updates are journaled, not committed

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 2 {
		t.Fatalf("recovered %d updates, want 2", r.Recovered())
	}
	// Batch size 2 closes the recovered window inside Seed; the injected
	// segment-write failure aborts its commit.
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.StoreSegmentWrite, Times: 1}}})
	_, err = r.Ingestor(2)
	disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Ingestor with failing seed = %v, want the injected fault", err)
	}
	if r.Recovered() != 2 {
		t.Fatalf("failed seed dropped the recovered window: Recovered() = %d, want 2", r.Recovered())
	}
	// The failed attempt released the slot; the retry replays the window.
	rin, err := r.Ingestor(2)
	if err != nil {
		t.Fatalf("retried Ingestor: %v", err)
	}
	if err := rin.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Recovered() != 0 || r.Acknowledged() != 2 {
		t.Fatalf("after retry: Recovered()=%d Acknowledged()=%d, want 0 and 2", r.Recovered(), r.Acknowledged())
	}
	last, err := r.Graph().Snapshot(r.Graph().NumSnapshots() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 2 || last[0] != a || last[1] != b {
		t.Fatalf("replayed snapshot %v, want [%v %v]", last, a, b)
	}
}

// TestWatcherPersistCompaction slides a persisted watcher's window and
// checks that background compaction folds the passed-over snapshots into
// the store's base: a fresh open starts at the window's origin and still
// answers queries over the remaining history identically.
func TestWatcherPersistCompaction(t *testing.T) {
	g, _ := buildEvolving(t, 77, 5, 50, 50)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.PersistMaintenance(gs)
	if err := w.Slide(); err != nil { // window [1,3]
		t.Fatal(err)
	}
	if err := w.Slide(); err != nil { // window [2,4]
		t.Fatal(err)
	}
	if err := w.WaitCompaction(); err != nil {
		t.Fatal(err)
	}
	if got := gs.Origin(); got != 0 {
		t.Fatalf("open-time origin changed to %d", got)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 2 {
		t.Fatalf("reopened origin %d, want 2 (window slid twice)", r.Origin())
	}
	rg := r.Graph()
	if rg.NumSnapshots() != g.NumSnapshots()-2 {
		t.Fatalf("reopened snapshots %d, want %d", rg.NumSnapshots(), g.NumSnapshots()-2)
	}
	// Reopened version i is original version i+2: results must agree.
	req := Request{
		Query:    Query{Algorithm: SSSP, Source: 0},
		Window:   Window{From: 0, To: rg.NumSnapshots() - 1},
		Strategy: WorkSharing,
	}
	got, err := rg.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Window = Window{From: 2, To: g.NumSnapshots() - 1}
	want, err := g.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Snapshots {
		if got.Snapshots[k].Checksum != want.Snapshots[k].Checksum ||
			got.Snapshots[k].Reached != want.Snapshots[k].Reached {
			t.Fatalf("compacted store disagrees at window snapshot %d", k)
		}
	}
}

// TestPersistRequiresFreshDir documents Persist's refusal to overwrite.
func TestPersistRequiresFreshDir(t *testing.T) {
	g := New(4, []Edge{{Src: 0, Dst: 1, W: 1}})
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	gs.Close()
	if _, err := g.Persist(dir); err == nil {
		t.Fatal("Persist over an existing store succeeded")
	}
}

// TestWatcherCloseStopsCompaction: after Close, slides still maintain the
// in-memory window but their background folds are cancelled — the store
// keeps its origin on reopen and the cancellation is not reported as a
// compaction failure. Close is idempotent.
func TestWatcherCloseStopsCompaction(t *testing.T) {
	g, _ := buildEvolving(t, 78, 5, 50, 50)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.PersistMaintenance(gs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Slide(); err != nil { // in-memory maintenance unaffected
		t.Fatal(err)
	}
	if err := w.WaitCompaction(); err != nil {
		t.Fatalf("cancelled compaction surfaced as an error: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 0 {
		t.Fatalf("compaction ran after Close: reopened origin %d, want 0", r.Origin())
	}
}

// TestCompactContextCancelled: a cancelled context skips the fold before
// it starts; a live one compacts exactly like Compact.
func TestCompactContextCancelled(t *testing.T) {
	g, _ := buildEvolving(t, 79, 4, 40, 40)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := gs.CompactContext(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompactContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := gs.CompactContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 2 {
		t.Fatalf("reopened origin %d, want 2", r.Origin())
	}
}
