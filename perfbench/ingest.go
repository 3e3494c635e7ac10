package main

// ingest-replicate is durable ingest with a live read replica: a
// GraphStore over the LJ-sim stand-in (a 10-snapshot history persisted
// at set-up) serves replication over loopback TCP to a Follower that
// keeps a 10-snapshot window. One closed-loop writer streams seeded add
// and delete updates through GraphStore.Ingestor, every raw update
// journaled before it is accepted, and waits on each Flush; the writer
// pauses while the follower is more than ingestBacklog transitions
// behind, so replication lag stays bounded. Afterwards the store is
// compacted to its last 10 snapshots and reopened reopenCycles times
// with mapped segments, each reopen answering a first query. Ingest, the
// WAL, the store, shipping and mmap page-in do nearly all the work and
// the engine almost none.
//
// The store lives under the run's output directory inside the checkout
// (its filesystem is printed in the host block); reopens find the page
// cache warm.
//
// End-to-end metrics on this workload:
//
//	setup_s           median of 3 set-ups: Persist, plus the follower
//	                  bootstrapping until it has caught up
//	throughput_per_s  raw updates durably committed per second
//	latency_p50/p90_s replication lag: from Flush returning (the primary's
//	                  durable commit) to the follower's commit hook for the
//	                  same transition
//
// The traced run's commit.* metrics time Flush, from the call to its
// durable return, on the untraced half.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"commongraph"
	"commongraph/internal/graph"
	"commongraph/internal/ingest"
	"commongraph/internal/repl"
	"commongraph/internal/snapshot"
	"commongraph/internal/store"
)

const (
	ingestWindow = 10 // snapshots persisted at set-up, and the follower's window
	// ingestUpdates is the number of raw updates per committed window,
	// half additions and half deletions.
	ingestUpdates = 200
	// ingestBacklog bounds how many transitions the follower may trail
	// before the writer waits for it.
	ingestBacklog = 1
	reopenCycles  = 5
)

type ingestInputs struct {
	n          int
	base       []commongraph.Edge
	adds, dels [][]commongraph.Edge // history, then one pair per run window
	src        commongraph.VertexID
}

func genIngest(cfg config, windows int) (*ingestInputs, error) {
	n, base, err := standIn("LJ-sim", cfg)
	if err != nil {
		return nil, err
	}
	half := ingestUpdates / 2
	if cfg.tiny {
		half = 4
	}
	in := &ingestInputs{n: n, base: base, src: byDegree(n, base)[0]}
	in.adds, in.dels, err = history(n, base, ingestWindow-1+windows, half, cfg.seed)
	return in, err
}

// ingestPhase is one set-up, write phase, check and reopen series.
type ingestPhase struct {
	setup     time.Duration
	commits   []float64
	lags      []float64
	updates   int
	windows   int
	elapsed   time.Duration
	reopens   []float64
	bytes     float64 // journal and segment bytes written by the traced write phase
	exhausted bool
}

// followerClock records when the follower's commit hook saw each
// generation.
type followerClock struct {
	mu      sync.Mutex
	at      map[uint64]time.Time
	changed chan struct{} // closed and replaced by every hook call
}

func newFollowerClock() *followerClock {
	return &followerClock{at: map[uint64]time.Time{}, changed: make(chan struct{})}
}

func (c *followerClock) hook(gen uint64) {
	now := time.Now()
	c.mu.Lock()
	c.at[gen] = now
	close(c.changed)
	c.changed = make(chan struct{})
	c.mu.Unlock()
}

// waitFor blocks until generation gen was seen or the deadline passes.
// It sleeps until the hook fires rather than polling, so the waiting
// writer takes no CPU from the follower it waits for.
func (c *followerClock) waitFor(gen uint64, deadline time.Time) (time.Time, bool) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		c.mu.Lock()
		t, ok := c.at[gen]
		changed := c.changed
		c.mu.Unlock()
		if ok {
			return t, true
		}
		select {
		case <-changed:
		case <-timer.C:
			return time.Time{}, false
		}
	}
}

// caughtUp polls until the follower mirrors every snapshot the primary
// has.
func caughtUp(f *commongraph.Follower, snapshots int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if w := f.Watcher(); w != nil {
			if _, to := w.Window(); to == snapshots-1 {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("follower did not catch up to %d snapshots within %v", snapshots, limit)
}

// primary is the write side of one phase: the public GraphStore, or in a
// traced phase the same store built and driven through the store,
// snapshot, ingest and repl packages in the order GraphStore calls them.
type primary struct {
	dir    string
	gs     *commongraph.GraphStore // untraced
	st     *store.Store            // traced
	ing    *commongraph.Ingestor   // untraced
	rs     *commongraph.ReplicationServer
	prim   *repl.Primary
	served chan struct{} // closed when the replication accept loop returns
	ln     net.Listener
}

func (p *primary) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if p.rs != nil {
		keep(p.rs.Close())
	}
	if p.prim != nil {
		keep(p.prim.Close())
		<-p.served
	}
	if p.ing != nil {
		keep(p.ing.Close())
	}
	if p.gs != nil {
		keep(p.gs.Close())
	}
	if p.st != nil {
		keep(p.st.Close())
	}
	return first
}

// startPrimary persists the graph into dir and starts replication.
func startPrimary(g *commongraph.EvolvingGraph, dir string, r *recorder) (*primary, error) {
	p := &primary{dir: dir}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.ln = ln
	if r == nil {
		if p.gs, err = g.Persist(dir); err != nil {
			ln.Close()
			return nil, err
		}
		p.rs = p.gs.ServeReplication(ln, commongraph.ReplicationOptions{})
		return p, nil
	}
	// Persist, call by call.
	s := g.Store()
	base, err := s.GetVersion(0)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if p.st, err = store.Create(dir, g.NumVertices(), base); err != nil {
		ln.Close()
		return nil, err
	}
	for t := 0; t < g.NumSnapshots()-1; t++ {
		if err := p.st.AppendBatch(s.Additions(t).Edges(), s.Deletions(t).Edges(), 0); err != nil {
			p.st.Close()
			ln.Close()
			return nil, err
		}
	}
	// ServeReplication, call by call.
	p.prim = repl.NewPrimary(p.st, 0)
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		// Serve returns once close shuts the primary down, which closes ln.
		_ = p.prim.Serve(ln)
	}()
	return p, nil
}

func runIngestReplicate(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	heap := startHeapSampler()
	t0 := time.Now()
	// Enough pre-generated windows for the fastest commit rate the
	// backlog bound allows.
	windows := int(cfg.seconds.Seconds()*40) + 8
	in, err := genIngest(cfg, windows)
	if err != nil {
		return nil, err
	}
	inputs := time.Since(t0).Seconds()
	root := filepath.Join(cfg.out, fmt.Sprintf("ingest-seed%d", cfg.seed))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep.params["graph"] = "LJ-sim"
	rep.params["vertices"] = in.n
	rep.params["edges"] = len(in.base)
	rep.params["history_snapshots"] = ingestWindow
	rep.params["updates_per_window"] = len(in.adds[ingestWindow]) + len(in.dels[ingestWindow])
	rep.params["follower_window"] = ingestWindow
	rep.params["backlog_bound"] = ingestBacklog
	rep.params["store_fs"] = fsType(root)
	rep.params["reopen"] = fmt.Sprintf("%d cycles, mapped segments, warm page cache", reopenCycles)
	rep.params["loop"] = "closed, 1 writer"

	if !cfg.trace {
		var setups []float64
		var ph *ingestPhase
		for i := 0; i < setupReps; i++ {
			// Only the last set-up goes on to the write phase.
			last := i == setupReps-1
			p, err := ingestOnce(ctx, cfg, in, filepath.Join(root, fmt.Sprintf("set%d", i)), nil, cfg.seconds, last, rep)
			if err != nil {
				return nil, err
			}
			setups = append(setups, p.setup.Seconds())
			ph = p
		}
		m := rep.metrics
		m["setup_s"] = quantile(setups, 0.5)
		m["throughput_per_s"] = float64(ph.updates) / ph.elapsed.Seconds()
		m["latency_p50_s"] = quantile(ph.lags, 0.5)
		m["latency_p90_s"] = quantile(ph.lags, 0.9)
		m["heap_peak_mb"] = heap.stopMB()
		rep.notes = append(rep.notes, fmt.Sprintf("%d windows committed in %.3fs, reopen p50 %.6fs, inputs generated in %.3fs",
			ph.windows, ph.elapsed.Seconds(), quantile(ph.reopens, 0.5), inputs))
		if ph.exhausted {
			rep.notes = append(rep.notes, "pre-generated windows ran out before the deadline")
		}
		return rep, nil
	}

	// Traced: an untraced phase through the public API, then the same
	// phase with the benchmark driving the store, snapshot, ingest and
	// repl packages itself, call by call, each call a span.
	half := cfg.seconds / 2
	base, err := ingestOnce(ctx, cfg, in, filepath.Join(root, "untraced"), nil, half, true, rep)
	if err != nil {
		return nil, err
	}
	r := newRecorder()
	tp, err := ingestOnce(ctx, cfg, in, filepath.Join(root, "traced"), r, half, true, rep)
	if err != nil {
		return nil, err
	}
	heap.stopMB()
	st := r.stats()
	per := func(name string, n int) float64 {
		if st[name] == nil {
			return 0
		}
		return ratio(st[name].total.Seconds(), float64(n))
	}
	m := rep.metrics
	m["loadgen.inputs_s"] = inputs
	m["commit.p50_s"] = quantile(base.commits, 0.5)
	m["commit.p99_s"] = quantile(base.commits, 0.99)
	m["trace.overhead_ratio"] = ratio(quantile(tp.commits, 0.5), quantile(base.commits, 0.5))
	m["ingest.compact_s"] = per("ingest.compact", tp.windows)
	m["store.journal_s"] = per("store.journal", tp.windows)
	m["store.append_s"] = per("store.append", tp.windows)
	m["snapshot.check_batch_s"] = per("snapshot.check_batch", tp.windows)
	m["snapshot.new_version_s"] = per("snapshot.new_version", tp.windows)
	m["store.bytes_per_commit"] = ratio(tp.bytes, float64(tp.windows))
	m["repl.ship_replay_s"] = mean(tp.lags)
	m["repl.lag_p99_s"] = quantile(tp.lags, 0.99)
	m["store.open_s"] = per("store.open", len(tp.reopens))
	m["store.snapshot_s"] = per("store.snapshot", len(tp.reopens))
	m["engine.first_query_s"] = per("engine.first_query", len(tp.reopens))
	m["reopen_s"] = quantile(base.reopens, 0.5)
	return rep, writeTraceOutputs(r, cfg, "ingest-replicate", rep)
}

// ingestOnce runs one phase in dir: set-up (timed), and when write is set
// the write phase for the given duration, the replica check, and the
// reopen cycles. With a recorder, the primary is driven call by call.
func ingestOnce(ctx context.Context, cfg config, in *ingestInputs, dir string, r *recorder, dur time.Duration, write bool, rep *report) (*ingestPhase, error) {
	ph := &ingestPhase{}
	g := commongraph.New(in.n, in.base)
	for t := 0; t < ingestWindow-1; t++ {
		if _, err := g.ApplyUpdates(in.adds[t], in.dels[t]); err != nil {
			return nil, fmt.Errorf("history transition %d: %w", t, err)
		}
	}
	pdir, fdir := filepath.Join(dir, "primary"), filepath.Join(dir, "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	p, err := startPrimary(g, pdir, r)
	if err != nil {
		return nil, err
	}
	f, err := commongraph.Follow(commongraph.FollowerConfig{Dir: fdir, Addr: p.ln.Addr().String(), WindowWidth: ingestWindow})
	if err != nil {
		p.close()
		return nil, err
	}
	if err := caughtUp(f, g.NumSnapshots(), time.Minute); err != nil {
		f.Close()
		p.close()
		return nil, err
	}
	ph.setup = time.Since(start)
	if !write {
		err := f.Close()
		if cerr := p.close(); err == nil {
			err = cerr
		}
		return ph, err
	}

	clock := newFollowerClock()
	f.OnCommit(clock.hook)
	gen0 := f.Generation()
	werr := ph.write(in, g, p, r, clock, gen0, dur, rep)
	if werr == nil {
		werr = caughtUp(f, g.NumSnapshots(), time.Minute)
	}
	if werr == nil {
		werr = checkReplica(ctx, g, f, in.src, rep)
	}
	ferr := f.Close()
	if werr != nil {
		p.close()
		return nil, werr
	}
	if ferr != nil {
		p.close()
		return nil, ferr
	}
	// Reopen: compact to the last window, close, reopen mapped, answer.
	before, err := firstQuery(ctx, g, in.src)
	if err != nil {
		p.close()
		return nil, err
	}
	keep := g.NumSnapshots() - ingestWindow
	if p.gs != nil {
		err = p.gs.Compact(keep)
	} else {
		err = p.st.CompactTo(p.st.Origin() + keep)
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < reopenCycles; i++ {
		d, sum, err := reopen(ctx, pdir, in.src, r)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if i == 0 && cfg.corrupt {
			sum ^= 1
		}
		if sum != before {
			rep.mismatch("reopen %d: last-snapshot checksum %016x, before the close %016x", i, sum, before)
		}
		ph.reopens = append(ph.reopens, d.Seconds())
	}
	return ph, nil
}

// write streams the pre-generated windows until the duration is up.
func (ph *ingestPhase) write(in *ingestInputs, g *commongraph.EvolvingGraph, p *primary,
	r *recorder, clock *followerClock, gen0 uint64, dur time.Duration, rep *report) error {
	var (
		pending []ingest.Update
		err     error
	)
	if r == nil {
		if p.ing, err = p.gs.Ingestor(1 << 30); err != nil {
			return err
		}
	}
	wal := filepath.Join(p.dir, "wal.log")
	flushed := make([]time.Time, 0, 256)
	start := time.Now()
	next := ingestWindow - 1
	for time.Since(start) < dur {
		if next >= len(in.adds) {
			ph.exhausted = true
			break
		}
		// Backpressure: wait while the follower trails too far.
		if k := len(flushed) - ingestBacklog; k >= 0 {
			if _, ok := clock.waitFor(gen0+uint64(k)+1, time.Now().Add(time.Minute)); !ok {
				return fmt.Errorf("follower stalled at transition %d", k)
			}
		}
		adds, dels := in.adds[next], in.dels[next]
		rep.attempted++
		var c0, c1 time.Time
		if r == nil {
			for j := range adds {
				if err := p.ing.Add(adds[j]); err != nil {
					return err
				}
				if j < len(dels) {
					if err := p.ing.Delete(dels[j]); err != nil {
						return err
					}
				}
			}
			c0 = time.Now()
			err = p.ing.Flush()
			c1 = time.Now()
		} else {
			pending = pending[:0]
			walBefore := fileSize(wal)
			for j := range adds {
				pending = append(pending, ingest.Update{Op: ingest.Add, Edge: adds[j]})
				if j < len(dels) {
					pending = append(pending, ingest.Update{Op: ingest.Delete, Edge: dels[j]})
				}
			}
			raw := make([]store.RawUpdate, len(pending))
			for j, u := range pending {
				op := store.RawAdd
				if u.Op == ingest.Delete {
					op = store.RawDelete
				}
				raw[j] = store.RawUpdate{Op: op, Edge: u.Edge}
				one := raw[j : j+1]
				r.time("store.journal", 1, func() { err = p.st.Journal(one) })
				if err != nil {
					return err
				}
			}
			journaled := fileSize(wal) - walBefore
			c0 = time.Now()
			err = commitTraced(r, g.Store(), p.st, pending, raw[len(raw)-1].Seq)
			c1 = time.Now()
			r.add("commit", 1, c0, c1)
			seg := fileSize(filepath.Join(p.dir, fmt.Sprintf("ovl-%06d.seg", p.st.Transitions()-1)))
			ph.bytes += float64(journaled + seg)
		}
		if err != nil {
			return fmt.Errorf("flush window %d: %w", len(flushed), err)
		}
		flushed = append(flushed, c1)
		ph.commits = append(ph.commits, c1.Sub(c0).Seconds())
		ph.updates += len(adds) + len(dels)
		next++
	}
	ph.elapsed = time.Since(start)
	ph.windows = len(flushed)
	for i, at := range flushed {
		seen, ok := clock.waitFor(gen0+uint64(i)+1, time.Now().Add(time.Minute))
		if !ok {
			return fmt.Errorf("follower never applied transition %d", i)
		}
		ph.lags = append(ph.lags, seen.Sub(at).Seconds())
		if r != nil {
			r.add("repl.ship_replay", 2, at, seen)
		}
	}
	return nil
}

// commitTraced is GraphStore's journaled window commit, call by call:
// compact the window, validate against memory, commit durably, then
// apply in memory.
func commitTraced(r *recorder, snap *snapshot.Store, st *store.Store, window []ingest.Update, lastSeq uint64) error {
	var (
		adds, dels graph.EdgeList
		err        error
	)
	r.time("ingest.compact", 1, func() { adds, dels, err = ingest.Compact(window) })
	if err != nil {
		return err
	}
	if len(adds) == 0 && len(dels) == 0 {
		r.time("store.append", 1, func() { err = st.AppendBatch(nil, nil, lastSeq) })
		return err
	}
	r.time("snapshot.check_batch", 1, func() { err = snap.CheckBatch(adds, dels) })
	if err != nil {
		return err
	}
	r.time("store.append", 1, func() { err = st.AppendBatch(adds, dels, lastSeq) })
	if err != nil {
		return err
	}
	r.time("snapshot.new_version", 1, func() { _, err = snap.NewVersion(adds, dels) })
	return err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// checkReplica compares the caught-up follower's answers over its window
// with the primary's over the same snapshots.
func checkReplica(ctx context.Context, g *commongraph.EvolvingGraph, f *commongraph.Follower, src commongraph.VertexID, rep *report) error {
	from, to := f.Watcher().Window()
	for _, alg := range []commongraph.Algorithm{commongraph.BFS, commongraph.SSSP} {
		q := commongraph.Query{Algorithm: alg, Source: src}
		rep.attempted++
		want, err := g.Run(ctx, commongraph.Request{Query: q,
			Window: commongraph.Window{From: from, To: to}, Strategy: commongraph.DirectHop})
		if err != nil {
			return err
		}
		got, err := f.Run(ctx, commongraph.Request{Query: q, Strategy: commongraph.DirectHop})
		if err != nil {
			return err
		}
		if len(got.Snapshots) != len(want.Snapshots) {
			rep.mismatch("follower %s: %d snapshots, primary %d", alg.Name(), len(got.Snapshots), len(want.Snapshots))
			continue
		}
		for i := range want.Snapshots {
			w, g := want.Snapshots[i], got.Snapshots[i]
			if w.Index != g.Index || w.Checksum != g.Checksum {
				rep.mismatch("follower %s snapshot %d: checksum %016x, primary snapshot %d %016x",
					alg.Name(), g.Index, g.Checksum, w.Index, w.Checksum)
				break
			}
		}
	}
	return nil
}

// firstQuery is the query a reopened store answers first: BFS from the
// highest-degree vertex over the latest snapshot.
func firstQuery(ctx context.Context, g *commongraph.EvolvingGraph, src commongraph.VertexID) (uint64, error) {
	last := g.NumSnapshots() - 1
	res, err := g.Run(ctx, commongraph.Request{
		Query:    commongraph.Query{Algorithm: commongraph.BFS, Source: src},
		Window:   commongraph.Window{From: last, To: last},
		Strategy: commongraph.DirectHop,
	})
	if err != nil {
		return 0, err
	}
	return res.Snapshots[0].Checksum, nil
}

// reopen opens the store with mapped segments and answers the first
// query, returning the time both took. With a recorder, OpenStoreWith is
// done call by call.
func reopen(ctx context.Context, dir string, src commongraph.VertexID, r *recorder) (time.Duration, uint64, error) {
	start := time.Now()
	if r == nil {
		gs, err := commongraph.OpenStoreWith(dir, commongraph.StoreOptions{MapSegments: true})
		if err != nil {
			return 0, 0, err
		}
		sum, err := firstQuery(ctx, gs.Graph(), src)
		d := time.Since(start)
		if cerr := gs.Close(); err == nil {
			err = cerr
		}
		return d, sum, err
	}
	var (
		st   *store.Store
		snap *snapshot.Store
		sum  uint64
		err  error
	)
	r.time("store.open", 3, func() { st, err = store.OpenWith(dir, store.Options{MapSegments: true}) })
	if err != nil {
		return 0, 0, err
	}
	r.time("store.snapshot", 3, func() {
		if snap, err = st.Snapshot(); err == nil {
			st.TakePending()
		}
	})
	if err == nil {
		r.time("engine.first_query", 3, func() { sum, err = firstQuery(ctx, commongraph.FromStore(snap), src) })
	}
	end := time.Now()
	r.add("reopen", 3, start, end)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return end.Sub(start), sum, err
}
