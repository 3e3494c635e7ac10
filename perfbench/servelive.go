package main

// serve-live is the api/v1 query service (internal/serve) over a live
// Watcher: a 10-snapshot maintained window over the DL-sim stand-in,
// slid on a fixed period by a writer using history generated in advance,
// while an open loop sends requests over loopback HTTP at a fixed rate,
// from two client goroutines on at most two connections. Sources follow a
// seeded Zipf distribution over the highest-degree vertices, and a fixed
// share of requests repeats an earlier one of the same slide period; each
// request runs BFS or SSSP with direct-hop-parallel (the service default)
// or work-sharing-parallel. PlanCache and the result cache spread planning
// across requests, so admission, the cache, plan waits, encoding and
// window maintenance carry the load.
//
// End-to-end metrics on this workload:
//
//	setup_s           median of 3 set-ups: New + ApplyUpdates, Watch, serve.New
//	throughput_per_s  goodput: correct responses within serveLimit per second
//	latency_p50/p90_s from each request's due time to its response
//
// The traced run's commit.* metrics time one Watcher.Slide.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/serve"
)

const (
	serveWindow  = 10
	serveClients = 2
	// serveRate is the open loop's fixed request rate: about a quarter of
	// the 22 req/s all-miss capacity measured on a 2-core host. Queueing
	// turns a slower host into a disproportionately slower response: at
	// half of the capacity the median swung by 30% from run to run, at a
	// third a passing slowdown of the host still moved it by 40%.
	serveRate = 6.0
	// servePeriod is the writer's slide period. A slide holds the
	// watcher's lock for about 0.2s and every request arriving meanwhile
	// waits for it; at a 6s period those are about 5% of requests, so the
	// 90th percentile stays clear of them (the 99th, a per-layer metric,
	// does not). With slides every second, a fifth of the requests waited
	// and the 90th percentile swung by 28% from run to run.
	servePeriod = 6 * time.Second
	// serveLimit is the latency limit a response must meet to count
	// toward goodput.
	serveLimit = time.Second
	// serveTop is how many of the highest-degree vertices sources are
	// drawn from, and serveZipf the skew of that draw.
	serveTop  = 1024
	serveZipf = 1.1
	// Every serveRepeatEvery-th request repeats an earlier request of the
	// same slide period, at least a sixth of the period after it, so it
	// finds the answer in the result cache; the other requests draw a
	// source that is new to their kind in that period. About a fifth of
	// the requests hit the cache in every run: with sources drawn freely,
	// the hit share moved with the seed, and the median latency with it.
	serveRepeatEvery = 3
	// serveSample is the share of responses re-evaluated for the answer
	// check.
	serveSample = 0.1
)

type serveReq struct {
	due    time.Duration // offset from the start of the run
	wire   apiv1.RunRequest
	sample bool
}

type serveInputs struct {
	n          int
	base       []commongraph.Edge
	adds, dels [][]commongraph.Edge
	reqs       []serveReq
	slides     int
	period     time.Duration // slide period
}

func genServeLive(cfg config) (*serveInputs, error) {
	n, base, err := standIn("DL-sim", cfg)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{n: n, base: base, period: servePeriod}
	if cfg.tiny {
		in.period = time.Second
	}
	in.slides = int(cfg.seconds/in.period) + 1
	in.adds, in.dels, err = history(n, base, serveWindow-1+in.slides, scaleFor(cfg).half, cfg.seed)
	if err != nil {
		return nil, err
	}
	top := byDegree(n, base)
	if len(top) > serveTop {
		top = top[:serveTop]
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	zipf := rand.NewZipf(rng, serveZipf, 1, uint64(len(top)-1))
	// The four request kinds, {BFS, SSSP} x {direct-hop-parallel,
	// work-sharing-parallel}, are dealt in blocks of four, each block in
	// its own seeded order, so every run offers the same mix. Their
	// latencies differ by up to 3x; drawn independently, the kinds' counts
	// moved by a fifth from seed to seed and the quantiles with them.
	kinds := [][2]string{
		{"BFS", "direct-hop-parallel"}, {"BFS", "work-sharing-parallel"},
		{"SSSP", "direct-hop-parallel"}, {"SSSP", "work-sharing-parallel"},
	}
	// A fixed rate with each arrival placed uniformly at random in its own
	// 1/serveRate slot: arrival phases against the slide period are
	// continuous, but every run offers the same number of requests and
	// about the same number land on a slide.
	slot := float64(time.Second) / serveRate
	type seenKey struct {
		period int
		kind   [2]string
		src    int
	}
	seen := map[seenKey]bool{}
	for i := 0; i < int(serveRate*cfg.seconds.Seconds()); i++ {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		k := kinds[i%len(kinds)]
		due := time.Duration((float64(i) + rng.Float64()) * slot)
		src := -1
		if i%serveRepeatEvery == serveRepeatEvery-1 {
			src = in.repeatSource(due, k)
		}
		period := int(due / in.period)
		for try := 0; src < 0; try++ {
			// A draw new to this kind in this period, so it misses the cache.
			if s := int(top[zipf.Uint64()]); try >= 64 || !seen[seenKey{period, k, s}] {
				src = s
			}
		}
		seen[seenKey{period, k, src}] = true
		in.reqs = append(in.reqs, serveReq{
			due:    due,
			wire:   apiv1.RunRequest{Algorithm: k[0], Source: src, Strategy: k[1]},
			sample: rng.Float64() < serveSample,
		})
	}
	return in, nil
}

// repeatSource returns the source of the latest earlier request of kind k
// that a request due at due can find in the result cache, or -1. Both must
// fall in the same slide period, clear of the slide at its start, with the
// earlier one due at least a sixth of the period before, so it has been
// answered.
func (in *serveInputs) repeatSource(due time.Duration, k [2]string) int {
	margin := in.period / 6
	start := due / in.period * in.period
	if due < start+2*margin || due > start+in.period-margin/2 {
		return -1
	}
	for j := len(in.reqs) - 1; j >= 0 && in.reqs[j].due >= start+margin; j-- {
		r := in.reqs[j]
		if r.due <= due-margin && r.wire.Algorithm == k[0] && r.wire.Strategy == k[1] {
			return r.wire.Source
		}
	}
	return -1
}

// serveOutcome is one request's record.
type serveOutcome struct {
	late, latency, rtt time.Duration
	ok, shed, cached   bool
	res                *apiv1.RunResult // kept for sampled responses only
}

// serveTiming is the traced run's handler and source instrumentation.
type serveTiming struct {
	r       *recorder
	mu      sync.Mutex
	handler map[int]time.Duration // request id -> handler time
	eval    map[int]time.Duration // request id -> source evaluation time
}

// reqMeta rides a traced request's context: the request's index in the
// schedule and the track of the client that sent it.
type reqMeta struct{ id, tid int }

type reqMetaKey struct{}

const reqIDHeader = "X-Bench-Request"

// idTransport copies the request index from the client's context into a
// header, so the traced handler can pair its timings with the client's.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if m, ok := r.Context().Value(reqMetaKey{}).(reqMeta); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.Itoa(m.id))
	}
	return t.base.RoundTrip(r)
}

// clientTid is the trace track of the client a tenant name belongs to.
func clientTid(tenant string) int {
	if tenant == "c1" {
		return 2
	}
	return 1
}

// wrap times ServeHTTP for requests carrying the benchmark's request id
// header; the id rides the context down to the timing source.
func (t *serveTiming) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqIDHeader))
		if err != nil {
			h.ServeHTTP(rw, r)
			return
		}
		m := reqMeta{id: id, tid: clientTid(r.Header.Get(apiv1.TenantHeader))}
		r = r.WithContext(context.WithValue(r.Context(), reqMetaKey{}, m))
		start := time.Now()
		h.ServeHTTP(rw, r)
		end := time.Now()
		t.r.add("serve.handler", m.tid, start, end)
		t.mu.Lock()
		t.handler[id] = end.Sub(start)
		t.mu.Unlock()
	})
}

// timingSource wraps WatchSource and times each evaluation of a traced
// request.
type timingSource struct {
	serve.Source
	t *serveTiming
}

func (s timingSource) Run(ctx context.Context, req commongraph.Request) (*commongraph.Result, error) {
	m, ok := ctx.Value(reqMetaKey{}).(reqMeta)
	if !ok {
		return s.Source.Run(ctx, req)
	}
	start := time.Now()
	res, err := s.Source.Run(ctx, req)
	end := time.Now()
	s.t.r.add("serve.eval", m.tid, start, end)
	s.t.mu.Lock()
	s.t.eval[m.id] += end.Sub(start)
	s.t.mu.Unlock()
	return res, err
}

type serveStack struct {
	g   *commongraph.EvolvingGraph
	w   *commongraph.Watcher
	srv *serve.Server
}

func runServeLive(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	heap := startHeapSampler()
	t0 := time.Now()
	in, err := genServeLive(cfg)
	if err != nil {
		return nil, err
	}
	inputs := time.Since(t0).Seconds()
	rep.params["graph"] = "DL-sim"
	rep.params["vertices"] = in.n
	rep.params["edges"] = len(in.base)
	rep.params["window"] = serveWindow
	rep.params["updates_per_transition"] = fmt.Sprintf("+%d/-%d", len(in.adds[0]), len(in.dels[0]))
	rep.params["loop"] = fmt.Sprintf("open, %.3g req/s, %d clients", serveRate, serveClients)
	rep.params["slide_period_s"] = in.period.Seconds()
	rep.params["goodput_limit_s"] = serveLimit.Seconds()
	rep.params["zipf"] = fmt.Sprintf("s=%.2g over top %d sources", serveZipf, serveTop)

	timing := &serveTiming{handler: map[int]time.Duration{}, eval: map[int]time.Duration{}}
	if cfg.trace {
		timing.r = newRecorder()
	}
	var setups []float64
	var st serveStack
	for i := 0; i < setupReps; i++ {
		if st.w != nil {
			if err := st.w.Close(); err != nil {
				return nil, err
			}
			st = serveStack{}
		}
		runtime.GC()
		start := time.Now()
		g := commongraph.New(in.n, in.base)
		for t := range in.adds {
			if _, err := g.ApplyUpdates(in.adds[t], in.dels[t]); err != nil {
				return nil, fmt.Errorf("set-up transition %d: %w", t, err)
			}
		}
		w, err := g.Watch(0, serveWindow-1)
		if err != nil {
			return nil, err
		}
		var src serve.Source = serve.WatchSource(w)
		if cfg.trace {
			src = timingSource{Source: src, t: timing}
		}
		srv := serve.New(src, serve.Config{})
		setups = append(setups, time.Since(start).Seconds())
		st = serveStack{g: g, w: w, srv: srv}
	}
	defer st.w.Close()
	runtime.GC()

	var handler http.Handler = st.srv
	if cfg.trace {
		handler = timing.wrap(handler)
	}
	mux := http.NewServeMux()
	mux.Handle(apiv1.RunPath, handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close() // Shutdown closes it first; this covers the early returns
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	if cfg.trace {
		hc.Transport = idTransport{tr}
	}
	base := "http://" + ln.Addr().String()
	clients := make([]*apiv1.Client, serveClients)
	for i := range clients {
		if clients[i], err = apiv1.Dial(base, apiv1.WithTenant(fmt.Sprintf("c%d", i)), apiv1.WithHTTPClient(hc)); err != nil {
			return nil, err
		}
	}

	outcomes := make([]serveOutcome, len(in.reqs))
	var outcomesMu sync.Mutex
	start := time.Now()
	// In a traced run the first half runs untraced, as the baseline the
	// tracing overhead is measured against.
	tracedFrom := len(in.reqs)
	if cfg.trace {
		tracedFrom = len(in.reqs) / 2
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.reqs) {
					return
				}
				due := start.Add(in.reqs[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				rctx := ctx
				if i >= tracedFrom {
					rctx = context.WithValue(ctx, reqMetaKey{}, reqMeta{id: i, tid: c + 1})
				}
				req := in.reqs[i].wire
				res, err := clients[c].Run(rctx, &req)
				done := time.Now()
				o := serveOutcome{late: sent.Sub(due), latency: done.Sub(due), rtt: done.Sub(sent)}
				var werr *apiv1.Error
				switch {
				case err == nil:
					o.ok, o.cached = true, res.Cached
					if in.reqs[i].sample || i == 0 {
						o.res = res
					}
				case errors.As(err, &werr) && werr.Code == apiv1.CodeQueueFull:
					o.shed = true
				}
				if i >= tracedFrom {
					timing.r.add("serve.rtt", c+1, sent, done)
				}
				outcomesMu.Lock()
				outcomes[i] = o
				outcomesMu.Unlock()
			}
		}(c)
	}
	// The writer slides the window on a fixed period until the run ends.
	type slides struct {
		commits []float64
		err     error
	}
	stopWriter := make(chan struct{})
	writerDone := make(chan slides, 1)
	go func() {
		var out slides
		defer func() { writerDone <- out }()
		for k := 1; k <= in.slides; k++ {
			select {
			case <-stopWriter:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * in.period))):
			}
			s0 := time.Now()
			if out.err = st.w.Slide(); out.err != nil {
				return
			}
			s1 := time.Now()
			out.commits = append(out.commits, s1.Sub(s0).Seconds())
			timing.r.add("core.slide", 3, s0, s1)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	close(stopWriter)
	written := <-writerDone
	commits := written.commits
	tr.CloseIdleConnections()
	shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return nil, err
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if written.err != nil {
		return nil, fmt.Errorf("slide: %w", written.err)
	}

	// Tally, then check the sampled answers against a full-history graph.
	var lat, late []float64
	good := 0
	for _, o := range outcomes {
		rep.attempted++
		late = append(late, o.late.Seconds())
		if !o.ok {
			rep.failed++
			continue
		}
		lat = append(lat, o.latency.Seconds())
		if o.latency <= serveLimit {
			good++
		}
	}
	if cfg.corrupt {
		for i := range outcomes {
			if outcomes[i].res != nil {
				outcomes[i].res.Snapshots[0].Checksum ^= 1
				break
			}
		}
	}
	checked, err := checkServeAnswers(ctx, st.g, in, outcomes, rep)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d requests, %d slides, %d sampled answers re-evaluated, inputs generated in %.3fs",
		len(outcomes), len(commits), checked, inputs))
	m := rep.metrics
	m["commit.p50_s"] = quantile(commits, 0.5)
	m["commit.p99_s"] = quantile(commits, 0.99)
	if !cfg.trace {
		m["setup_s"] = quantile(setups, 0.5)
		m["throughput_per_s"] = float64(good) / elapsed.Seconds()
		m["latency_p50_s"] = quantile(lat, 0.5)
		m["latency_p90_s"] = quantile(lat, 0.9)
		m["heap_peak_mb"] = heap.stopMB()
		return rep, nil
	}
	heap.stopMB()
	m["loadgen.inputs_s"] = inputs
	traceServeLive(timing, st.srv, outcomes, tracedFrom, commits, rep)
	return rep, writeTraceOutputs(timing.r, cfg, "serve-live", rep)
}

// checkServeAnswers re-evaluates every kept response at the window it
// reports, on the full-history graph, and compares checksums. A response
// computed at generation G evaluated a window starting at G or later (the
// service reads the generation before the evaluation takes its window).
func checkServeAnswers(ctx context.Context, g *commongraph.EvolvingGraph, in *serveInputs, outcomes []serveOutcome, rep *report) (int, error) {
	type key struct {
		alg      string
		src      int
		from, to int
	}
	memo := map[key][]uint64{}
	checked := 0
	for i, o := range outcomes {
		res := o.res
		if res == nil {
			continue
		}
		req := in.reqs[i].wire
		w := res.Window
		if w.To-w.From+1 != serveWindow || len(res.Snapshots) != serveWindow || uint64(w.From) < res.Generation {
			rep.mismatch("request %d: window [%d,%d] with %d snapshots at generation %d",
				i, w.From, w.To, len(res.Snapshots), res.Generation)
			continue
		}
		k := key{req.Algorithm, req.Source, w.From, w.To}
		want, ok := memo[k]
		if !ok {
			alg, _ := commongraph.AlgorithmByName(req.Algorithm)
			r, err := g.Run(ctx, commongraph.Request{
				Query:    commongraph.Query{Algorithm: alg, Source: commongraph.VertexID(req.Source)},
				Window:   commongraph.Window{From: w.From, To: w.To},
				Strategy: commongraph.DirectHop,
			})
			if err != nil {
				return checked, fmt.Errorf("re-evaluate request %d: %w", i, err)
			}
			want = resultSums(r)
			memo[k] = want
		}
		checked++
		for j, s := range res.Snapshots {
			if s.Index != w.From+j || uint64(s.Checksum) != want[j] {
				rep.mismatch("request %d (%s from %d, %s): snapshot %d checksum %016x, full history gives %016x",
					i, req.Algorithm, req.Source, req.Strategy, s.Index, uint64(s.Checksum), want[j])
				break
			}
		}
	}
	return checked, nil
}

// traceServeLive derives the per-layer metrics from the traced half of
// the requests: round trip = transport + handler, handler = evaluation +
// admission/cache/encoding.
func traceServeLive(t *serveTiming, srv *serve.Server, outcomes []serveOutcome, tracedFrom int, commits []float64, rep *report) {
	var rtt, handler, eval []float64
	var lat, untracedLat, tracedLat, late []float64
	ok, cached, shed := 0, 0, 0
	for i, o := range outcomes {
		late = append(late, o.late.Seconds())
		if o.shed {
			shed++
		}
		if !o.ok {
			continue
		}
		ok++
		if o.cached {
			cached++
		}
		lat = append(lat, o.latency.Seconds())
		if i < tracedFrom {
			untracedLat = append(untracedLat, o.latency.Seconds())
			continue
		}
		tracedLat = append(tracedLat, o.latency.Seconds())
		rtt = append(rtt, o.rtt.Seconds())
		handler = append(handler, t.handler[i].Seconds())
		eval = append(eval, t.eval[i].Seconds())
	}
	m := rep.metrics
	m["trace.overhead_ratio"] = ratio(quantile(tracedLat, 0.5), quantile(untracedLat, 0.5))
	rep.notes = append(rep.notes, fmt.Sprintf("latency p50: untraced half %.6fs, traced half %.6fs",
		quantile(untracedLat, 0.5), quantile(tracedLat, 0.5)))
	m["core.slide_s"] = mean(commits)
	m["serve.rtt_s"] = mean(rtt)
	m["serve.handler_s"] = mean(handler)
	m["serve.eval_s"] = mean(eval)
	m["serve.admit_cache_encode_s"] = mean(handler) - mean(eval)
	m["client.transport_s"] = mean(rtt) - mean(handler)
	m["serve.result_cache_hit_ratio"] = ratio(float64(cached), float64(ok))
	if pc := srv.PlanCache(); pc != nil {
		s := pc.Stats()
		m["plan.shared_ratio"] = ratio(float64(s.Shared+s.Derives), float64(s.Solves+s.Derives+s.Shared))
		m["plan.sched_hit_ratio"] = ratio(float64(s.SchedHits), float64(s.SchedHits+s.SchedMisses))
	}
	m["serve.shed"] = float64(shed)
	m["serve.latency_p99_s"] = quantile(lat, 0.99)
	m["loadgen.late_p99_s"] = quantile(late, 0.99)
}
