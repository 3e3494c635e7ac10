package main

// window50 is the paper's Table 4 shape: one closed-loop client evaluates
// a full 50-snapshot LJ-sim window through commongraph.Run, cycling in a
// fixed seeded order through {KickStarter, Direct-Hop, Work-Sharing} x
// {BFS, SSSP} x the two highest-degree sources, with default Options and
// no PlanCache. Every operation plans from scratch, so planning, the
// common-graph solve, overlays, engine passes, state clones and
// KickStarter's trimming do the work; the store, serve and replication
// code is idle.
//
// End-to-end metrics on this workload:
//
//	setup_s           median of 3 set-ups: New + 49 ApplyUpdates
//	throughput_per_s  snapshot evaluations per second
//	latency_p50/p90_s Run latency over the whole operation mix
//
// The traced run's commit.* metrics time one ApplyUpdates (an in-memory
// new_version) during the set-ups.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"commongraph"
	"commongraph/internal/core"
	"commongraph/internal/delta"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
	"commongraph/internal/kickstarter"
)

const (
	w50Sources = 2
	// setupReps is the number of timed set-ups every workload reports the
	// median of; a single set-up swings with the host's memory speed.
	setupReps = 3
)

type w50Op struct {
	strategy commongraph.Strategy
	alg      commongraph.Algorithm
	src      commongraph.VertexID
}

type pairKey struct {
	alg string
	src commongraph.VertexID
}

func (o w50Op) pair() pairKey { return pairKey{o.alg.Name(), o.src} }

type w50Inputs struct {
	n          int
	base       []commongraph.Edge
	adds, dels [][]commongraph.Edge
	ops        []w50Op // one cycle, in its seeded order
}

func genWindow50(cfg config) (*w50Inputs, error) {
	snapshots := 50
	if cfg.tiny {
		snapshots = 6
	}
	n, base, err := standIn("LJ-sim", cfg)
	if err != nil {
		return nil, err
	}
	adds, dels, err := history(n, base, snapshots-1, scaleFor(cfg).half, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &w50Inputs{n: n, base: base, adds: adds, dels: dels}
	srcs := byDegree(n, base)[:w50Sources]
	for _, s := range []commongraph.Strategy{commongraph.KickStarter, commongraph.DirectHop, commongraph.WorkSharing} {
		for _, a := range []commongraph.Algorithm{commongraph.BFS, commongraph.SSSP} {
			for _, src := range srcs {
				in.ops = append(in.ops, w50Op{s, a, src})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	rng.Shuffle(len(in.ops), func(i, j int) { in.ops[i], in.ops[j] = in.ops[j], in.ops[i] })
	return in, nil
}

// w50Checker holds the per-snapshot checksums the first answer for each
// (algorithm, source) pair gave; every later answer must repeat them.
type w50Checker struct {
	rep     *report
	want    map[pairKey][]uint64
	corrupt bool
}

func (c *w50Checker) check(op w50Op, sums []uint64, width int) {
	if c.corrupt {
		sums[0] ^= 1
		c.corrupt = false
	}
	if len(sums) != width {
		c.rep.mismatch("%v %s from %d: %d snapshots, want %d", op.strategy, op.alg.Name(), op.src, len(sums), width)
		return
	}
	want, ok := c.want[op.pair()]
	if !ok {
		c.want[op.pair()] = sums
		return
	}
	for i := range want {
		if sums[i] != want[i] {
			c.rep.mismatch("%v %s from %d: snapshot %d checksum %016x, another strategy gave %016x",
				op.strategy, op.alg.Name(), op.src, i, sums[i], want[i])
			return
		}
	}
}

// spotCheck compares one seeded snapshot per pair against the
// Bellman-Ford oracle, outside the timed region.
func (c *w50Checker) spotCheck(g *commongraph.EvolvingGraph, seed uint64) error {
	keys := make([]pairKey, 0, len(c.want))
	for k := range c.want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].alg != keys[j].alg {
			return keys[i].alg < keys[j].alg
		}
		return keys[i].src < keys[j].src
	})
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	for _, k := range keys {
		idx := rng.Intn(g.NumSnapshots())
		edges, err := g.Snapshot(idx)
		if err != nil {
			return err
		}
		alg, _ := commongraph.AlgorithmByName(k.alg)
		og := delta.NewOverlayGraph(graph.NewPair(g.NumVertices(), edges))
		if got := checksum(engine.Reference(og, alg, k.src)); got != c.want[k][idx] {
			c.rep.mismatch("%s from %d: snapshot %d checksum %016x, reference gives %016x",
				k.alg, k.src, idx, c.want[k][idx], got)
		}
	}
	return nil
}

func resultSums(res *commongraph.Result) []uint64 {
	sums := make([]uint64, len(res.Snapshots))
	for i, s := range res.Snapshots {
		sums[i] = s.Checksum
	}
	return sums
}

func runWindow50(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	heap := startHeapSampler()
	t0 := time.Now()
	in, err := genWindow50(cfg)
	if err != nil {
		return nil, err
	}
	inputs := time.Since(t0).Seconds()
	width := len(in.adds) + 1
	rep.params["graph"] = "LJ-sim"
	rep.params["vertices"] = in.n
	rep.params["edges"] = len(in.base)
	rep.params["snapshots"] = width
	rep.params["updates_per_transition"] = fmt.Sprintf("+%d/-%d", len(in.adds[0]), len(in.dels[0]))
	rep.params["ops_per_cycle"] = len(in.ops)
	rep.params["loop"] = "closed, 1 client"

	// Set-up: New + ApplyUpdates, several times, each after a collection so
	// the generator's garbage is not billed to it. The last graph is kept.
	var setups, commits []float64
	var g *commongraph.EvolvingGraph
	for i := 0; i < setupReps; i++ {
		g = nil
		runtime.GC()
		start := time.Now()
		gg := commongraph.New(in.n, in.base)
		for t := range in.adds {
			c0 := time.Now()
			if _, err := gg.ApplyUpdates(in.adds[t], in.dels[t]); err != nil {
				return nil, fmt.Errorf("set-up transition %d: %w", t, err)
			}
			commits = append(commits, time.Since(c0).Seconds())
		}
		setups = append(setups, time.Since(start).Seconds())
		g = gg
	}
	runtime.GC()
	rep.metrics["commit.p50_s"] = quantile(commits, 0.5)
	rep.metrics["commit.p99_s"] = quantile(commits, 0.99)

	chk := &w50Checker{rep: rep, want: map[pairKey][]uint64{}, corrupt: cfg.corrupt}
	if cfg.trace {
		if err := traceWindow50(ctx, cfg, g, in, chk, rep); err != nil {
			return nil, err
		}
		rep.metrics["loadgen.inputs_s"] = inputs
	} else {
		var lat []float64
		evals := 0
		start := time.Now()
		for cycle := 0; cycle == 0 || time.Since(start) < cfg.seconds; cycle++ {
			for _, op := range in.ops {
				rep.attempted++
				q0 := time.Now()
				res, err := g.Run(ctx, commongraph.Request{
					Query:    commongraph.Query{Algorithm: op.alg, Source: op.src},
					Window:   commongraph.Window{From: 0, To: width - 1},
					Strategy: op.strategy,
				})
				d := time.Since(q0)
				if err != nil {
					rep.failed++
					continue
				}
				lat = append(lat, d.Seconds())
				evals += len(res.Snapshots)
				chk.check(op, resultSums(res), width)
			}
		}
		elapsed := time.Since(start).Seconds()
		rep.metrics["setup_s"] = quantile(setups, 0.5)
		rep.metrics["throughput_per_s"] = float64(evals) / elapsed
		rep.metrics["latency_p50_s"] = quantile(lat, 0.5)
		rep.metrics["latency_p90_s"] = quantile(lat, 0.9)
		rep.notes = append(rep.notes, fmt.Sprintf("%d queries, %d commits sampled in set-up, inputs generated in %.3fs",
			len(lat), len(commits), inputs))
	}
	rep.metrics["heap_peak_mb"] = heap.stopMB()
	if err := chk.spotCheck(g, cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// w50Trace accumulates the traced run's per-strategy layer times.
type w50Trace struct {
	r      *recorder
	layers map[string]map[string]time.Duration // strategy slug -> layer -> time
	wall   map[string]time.Duration
	ops    map[string]int
	work   engine.Stats
	ks     kickstarter.CostBreakdown
	ws     core.Cost
}

// span times f as one layer of the strategy's current operation.
func (t *w50Trace) span(strategy, layer string, f func()) {
	d := t.r.time(layer, 1, f)
	if t.layers[strategy] == nil {
		t.layers[strategy] = map[string]time.Duration{}
	}
	t.layers[strategy][layer] += d
}

// traceWindow50 runs the same operation cycle, each operation twice: once
// through commongraph.Run (the untraced latency) and once as the
// benchmark's own sequence of calls into core, delta, engine and
// kickstarter, the same calls Run makes, each timed as a span.
func traceWindow50(ctx context.Context, cfg config, g *commongraph.EvolvingGraph, in *w50Inputs, chk *w50Checker, rep *report) error {
	t := &w50Trace{r: newRecorder(), layers: map[string]map[string]time.Duration{},
		wall: map[string]time.Duration{}, ops: map[string]int{}}
	width := len(in.adds) + 1
	runLat := map[string][]float64{}
	adds := map[string][]float64{}
	var dels []float64
	var runWall, tracedWall time.Duration
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < cfg.seconds; cycle++ {
		for _, op := range in.ops {
			slug := shortSlug(op.strategy)
			rep.attempted += 2
			q0 := time.Now()
			res, err := g.Run(ctx, commongraph.Request{
				Query:    commongraph.Query{Algorithm: op.alg, Source: op.src},
				Window:   commongraph.Window{From: 0, To: width - 1},
				Strategy: op.strategy,
			})
			d := time.Since(q0)
			if err != nil {
				rep.failed += 2
				continue
			}
			runWall += d
			runLat[slug] = append(runLat[slug], d.Seconds())
			adds[slug] = append(adds[slug], float64(res.AdditionsProcessed))
			if op.strategy == commongraph.KickStarter {
				dels = append(dels, float64(res.DeletionsProcessed))
			}
			chk.check(op, resultSums(res), width)

			o0 := time.Now()
			sums, err := t.run(g, op, width)
			o1 := time.Now()
			if err != nil {
				rep.failed++
				continue
			}
			t.r.add("op."+slug, 1, o0, o1)
			t.wall[slug] += o1.Sub(o0)
			t.ops[slug]++
			tracedWall += o1.Sub(o0)
			chk.check(op, sums, width)
		}
	}

	m := rep.metrics
	per := func(slug, layer string) float64 {
		return ratio(t.layers[slug][layer].Seconds(), float64(t.ops[slug]))
	}
	nDH, nWS, nKS := float64(t.ops["dh"]), float64(t.ops["ws"]), float64(t.ops["ks"])
	m["latency.ks_p50_s"] = quantile(runLat["ks"], 0.5)
	m["latency.dh_p50_s"] = quantile(runLat["dh"], 0.5)
	m["latency.ws_p50_s"] = quantile(runLat["ws"], 0.5)
	m["trace.overhead_ratio"] = ratio(tracedWall.Seconds(), runWall.Seconds())
	m["core.rep_s"] = ratio((t.layers["dh"]["core.rep"] + t.layers["ws"]["core.rep"]).Seconds(), nDH+nWS)
	m["core.tg_s"] = per("ws", "core.tg")
	m["core.schedule_s"] = per("ws", "core.schedule")
	m["engine.common_solve_s"] = ratio((t.layers["dh"]["engine.common_solve"] + t.layers["ws"]["engine.common_solve"]).Seconds(), nDH+nWS)
	m["engine.add_s"] = per("dh", "engine.add")
	m["engine.state_clone_s"] = per("dh", "engine.state_clone")
	m["delta.overlay_build_s"] = per("dh", "delta.overlay_build")
	m["core.checksum_s"] = ratio((t.layers["ks"]["core.checksum"] + t.layers["dh"]["core.checksum"]).Seconds(), nKS+nDH)
	m["core.ws_exec_s"] = per("ws", "core.ws_exec")
	m["core.ws_exec.add_s"] = ratio(t.ws.IncrementalAdd.Seconds(), nWS)
	m["core.ws_exec.overlay_s"] = ratio(t.ws.OverlayBuild.Seconds(), nWS)
	m["core.ws_exec.clone_s"] = ratio((t.ws.StateClone + t.ws.InitialCompute).Seconds(), nWS)
	m["snapshot.get_version_s"] = per("ks", "snapshot.get_version")
	m["kickstarter.init_s"] = per("ks", "kickstarter.init")
	m["kickstarter.mutate_s"] = ratio((t.ks.MutateAdd + t.ks.MutateDelete).Seconds(), nKS)
	m["kickstarter.trim_s"] = ratio(t.ks.IncrementalDelete.Seconds(), nKS)
	m["kickstarter.add_s"] = ratio(t.ks.IncrementalAdd.Seconds(), nKS)
	nOps := nKS + nDH + nWS
	m["engine.edges_pushed"] = ratio(float64(t.work.EdgesPushed), nOps)
	m["engine.improved"] = ratio(float64(t.work.Improved), nOps)
	m["engine.improved_per_edge"] = ratio(float64(t.work.Improved), float64(t.work.EdgesPushed))
	m["additions_streamed.ks"] = mean(adds["ks"])
	m["additions_streamed.dh"] = mean(adds["dh"])
	m["additions_streamed.ws"] = mean(adds["ws"])
	m["deletions_streamed.ks"] = mean(dels)
	m["ws_share_ratio"] = ratio(mean(adds["ws"]), mean(adds["dh"]))

	// Each operation's wall time splits into its layer spans plus the
	// unattributed remainder; print the split per strategy.
	rep.notes = append(rep.notes, "per-operation split (s): wall = layers + unattributed")
	for _, slug := range []string{"ks", "dh", "ws"} {
		n := float64(t.ops[slug])
		var names []string
		var sum time.Duration
		for layer, d := range t.layers[slug] {
			names = append(names, layer)
			sum += d
		}
		sort.Strings(names)
		un := t.wall[slug] - sum
		m["unattributed_s."+slug] = ratio(un.Seconds(), n)
		line := fmt.Sprintf("  %s: ops=%d wall=%.6f", slug, t.ops[slug], ratio(t.wall[slug].Seconds(), n))
		for _, layer := range names {
			line += fmt.Sprintf(" %s=%.6f", layer, ratio(t.layers[slug][layer].Seconds(), n))
		}
		line += fmt.Sprintf(" unattributed=%.6f", ratio(un.Seconds(), n))
		rep.notes = append(rep.notes, line)
	}
	return writeTraceOutputs(t.r, cfg, "window50", rep)
}

func shortSlug(s commongraph.Strategy) string {
	switch s {
	case commongraph.KickStarter:
		return "ks"
	case commongraph.DirectHop:
		return "dh"
	case commongraph.WorkSharing:
		return "ws"
	}
	return s.Slug()
}

// run performs one operation as the sequence of module calls Run makes
// for its strategy, timing each call, and returns the per-snapshot
// checksums.
func (t *w50Trace) run(g *commongraph.EvolvingGraph, op w50Op, width int) ([]uint64, error) {
	slug := shortSlug(op.strategy)
	store := g.Store()
	opt := engine.Options{}
	var err error
	if op.strategy == commongraph.KickStarter {
		var first []commongraph.Edge
		t.span(slug, "snapshot.get_version", func() { first, err = g.Snapshot(0) })
		if err != nil {
			return nil, err
		}
		var sys *kickstarter.System
		t.span(slug, "kickstarter.init", func() {
			sys = kickstarter.New(g.NumVertices(), graph.EdgeList(first), op.alg, op.src, opt)
		})
		sums := make([]uint64, 0, width)
		t.span(slug, "core.checksum", func() { sums = append(sums, core.Checksum(sys.State())) })
		for tr := 0; tr < width-1; tr++ {
			add, del := store.Additions(tr).Edges(), store.Deletions(tr).Edges()
			t.span(slug, "kickstarter.transition", func() { err = sys.ApplyTransition(add, del) })
			if err != nil {
				return nil, err
			}
			t.span(slug, "core.checksum", func() { sums = append(sums, core.Checksum(sys.State())) })
		}
		t.ks.Add(sys.Cost)
		t.work.Add(sys.Work)
		return sums, nil
	}

	w := core.Window{Store: store, From: 0, To: width - 1}
	var rep *core.Rep
	t.span(slug, "core.rep", func() { rep, err = core.BuildRep(w) })
	if err != nil {
		return nil, err
	}
	var (
		tg    *core.TG
		sched *core.Schedule
	)
	if op.strategy == commongraph.WorkSharing {
		t.span(slug, "core.tg", func() { tg, err = core.BuildTG(w) })
		if err != nil {
			return nil, err
		}
		t.span(slug, "core.schedule", func() { sched, err = core.NewSchedule(tg, core.SteinerGreedy(tg)) })
		if err != nil {
			return nil, err
		}
	}
	var (
		base  *engine.State
		stats engine.Stats
	)
	t.span(slug, "engine.common_solve", func() { base, stats = engine.Run(rep.Base, op.alg, op.src, opt) })
	t.work.Add(stats)

	if op.strategy == commongraph.WorkSharing {
		var res *core.Result
		t.span(slug, "core.ws_exec", func() {
			res, err = core.WorkSharing(rep, tg, sched, core.Config{Algo: op.alg, Source: op.src, Engine: opt, Common: base})
		})
		if err != nil {
			return nil, err
		}
		t.ws.InitialCompute += res.Cost.InitialCompute
		t.ws.IncrementalAdd += res.Cost.IncrementalAdd
		t.ws.OverlayBuild += res.Cost.OverlayBuild
		t.ws.StateClone += res.Cost.StateClone
		t.work.Add(res.Work)
		sums := make([]uint64, len(res.Snapshots))
		for i, s := range res.Snapshots {
			sums[i] = s.Checksum
		}
		return sums, nil
	}

	sums := make([]uint64, len(rep.Deltas))
	for k := range rep.Deltas {
		var og *delta.OverlayGraph
		t.span(slug, "delta.overlay_build", func() {
			og = delta.NewOverlayGraph(rep.Base, delta.NewOverlay(rep.N, rep.Deltas[k]))
		})
		var st *engine.State
		t.span(slug, "engine.state_clone", func() { st = base.Clone() })
		var s engine.Stats
		t.span(slug, "engine.add", func() { s = engine.IncrementalAdd(og, st, rep.Deltas[k].Edges(), opt) })
		t.work.Add(s)
		t.span(slug, "core.checksum", func() { sums[k] = core.Checksum(st) })
	}
	return sums, nil
}
