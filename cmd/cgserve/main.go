// Command cgserve runs the multi-tenant query service: a versioned
// HTTP/JSON API (POST /v1/run) over a shared evolving graph, with
// admission control, per-tenant quotas, a commit-invalidated result
// cache, and cross-query sharing of common-graph work. The query
// endpoint mounts on the same ops surface as /metrics, /healthz,
// /readyz and the /debug forensic endpoints.
//
// Usage:
//
//	cgserve store  -store /data/graph.cgstore [-window N] [-listen :8080]
//	cgserve follow -store /data/replica.cgstore -primary host:7070 [-listen :8080]
//	cgserve demo   [-listen :8080] [-tick 2s]
//
// store serves a durable cgstore's graph, watching its most recent N
// snapshots (0 = all). follow serves a replication follower's mirrored
// window — reads stay live while the replica trails the primary within
// its staleness budget. demo serves a synthetic evolving graph whose
// window slides continuously, for kicking the tires:
//
//	cgserve demo &
//	curl -s -X POST localhost:8080/v1/run \
//	  -H 'X-CG-Tenant: me' \
//	  -d '{"algorithm":"SSSP","source":0}' | jq .
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/obs"
	"commongraph/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "store":
		err = storeMode(os.Args[2:])
	case "follow":
		err = followMode(os.Args[2:])
	case "demo":
		err = demoMode(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cgserve: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgserve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cgserve store  -store DIR [-window N] [serve flags]
  cgserve follow -store DIR -primary ADDR [-max-lag-seq N] [-serve-stale] [serve flags]
  cgserve demo   [-tick D] [serve flags]

serve flags:
  -listen ADDR      (default :8080)
  -workers N        concurrent evaluations (default GOMAXPROCS)
  -queue N          admission queue depth beyond the workers (default 4x workers)
  -tenant-rate R    per-tenant requests/second; 0 disables quotas
  -tenant-burst N   per-tenant burst (default one second of rate)
  -cache N          result-cache entries (default 512; negative disables)
  -cache-max-bytes B  refuse caching results above this estimated size
                    (default 4MiB; negative = unlimited)
  -cost-per-medges T  extra quota tokens debited per million evaluated
                    edges; 0 keeps flat per-request quotas
  -no-sharing       disable cross-query common-graph sharing
  -strategy S       default strategy for requests that omit one
                    (default direct-hop-parallel)`)
}

// serveFlags registers the flags every mode shares and returns a closure
// producing the serve.Config they describe.
func serveFlags(fs *flag.FlagSet) (listen *string, cfg func() (serve.Config, error)) {
	listen = fs.String("listen", ":8080", "address for the query + ops endpoint")
	workers := fs.Int("workers", 0, "concurrent evaluations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
	rate := fs.Float64("tenant-rate", 0, "per-tenant requests/second; 0 disables quotas")
	burst := fs.Int("tenant-burst", 0, "per-tenant burst (0 = one second of rate)")
	cache := fs.Int("cache", 0, "result-cache entries (0 = 512; negative disables)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "refuse caching results above this estimated size (0 = 4MiB; negative = unlimited)")
	cost := fs.Float64("cost-per-medges", 0, "extra quota tokens debited per million evaluated edges (0 = flat per-request quotas)")
	noShare := fs.Bool("no-sharing", false, "disable cross-query common-graph sharing")
	strategy := fs.String("strategy", "", "default strategy for requests that omit one")
	return listen, func() (serve.Config, error) {
		c := serve.Config{
			Workers: *workers, QueueDepth: *queue,
			TenantRate: *rate, TenantBurst: *burst,
			CacheEntries:        *cache,
			CacheMaxResultBytes: *cacheMax,
			CostPerMillionEdges: *cost,
			DisableSharing:      *noShare,
		}
		if *strategy != "" {
			s, err := commongraph.ParseStrategy(*strategy)
			if err != nil {
				return c, err
			}
			c.DefaultStrategy = s
		}
		return c, nil
	}
}

// run mounts the query server on a fresh ops mux and serves until
// SIGINT/SIGTERM, then drains gracefully.
func run(listen string, srv *serve.Server, window func() (int, int), extraReady func() (bool, string)) error {
	mux := obs.NewOpsMux()
	mux.Handle(apiv1.RunPath, srv)
	mux.SetReadiness(func() (bool, string) {
		if extraReady != nil {
			if ok, detail := extraReady(); !ok {
				return false, detail
			}
		}
		return srv.Ready()
	})
	mux.HandleFunc("/window", func(rw http.ResponseWriter, _ *http.Request) {
		from, to := window()
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]int{"from": from, "to": to, "width": to - from + 1})
	})
	stopRuntime := obs.StartRuntimeCollector(0)
	defer stopRuntime()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("cgserve: query endpoint on http://%s%s\n", ln.Addr(), apiv1.RunPath)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-errc:
		return err
	}
	fmt.Println("cgserve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}

func storeMode(args []string) error {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	dir := fs.String("store", "", "durable cgstore directory (required)")
	window := fs.Int("window", 0, "serve the most recent N snapshots (0 = all)")
	listen, cfg := serveFlags(fs)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("store: -store is required")
	}
	c, err := cfg()
	if err != nil {
		return err
	}
	gs, err := commongraph.OpenStore(*dir)
	if err != nil {
		return err
	}
	defer gs.Close()
	g := gs.Graph()
	last := g.NumSnapshots() - 1
	from := 0
	if *window > 0 && last-*window+1 > 0 {
		from = last - *window + 1
	}
	w, err := g.Watch(from, last)
	if err != nil {
		return err
	}
	defer w.Close()
	w.PersistMaintenance(gs)
	fmt.Printf("cgserve: serving %s window [%d,%d] of %d snapshots\n", *dir, from, last, g.NumSnapshots())
	return run(*listen, serve.New(serve.WatchSource(w), c), w.Window, nil)
}

func followMode(args []string) error {
	fs := flag.NewFlagSet("follow", flag.ExitOnError)
	dir := fs.String("store", "", "replica directory — created on first bootstrap (required)")
	primary := fs.String("primary", "", "primary's replication address (required)")
	window := fs.Int("window", 0, "maintained window width in snapshots (0 = unbounded)")
	maxLagSeq := fs.Uint64("max-lag-seq", 0, "staleness budget in WAL sequence numbers (0 = unbounded)")
	maxLagWin := fs.Int("max-lag-windows", 0, "staleness budget in committed windows (0 = unbounded)")
	serveStale := fs.Bool("serve-stale", false, "serve reads past the budget, marked stale, instead of failing fast")
	listen, cfg := serveFlags(fs)
	fs.Parse(args)
	if *dir == "" || *primary == "" {
		return fmt.Errorf("follow: -store and -primary are required")
	}
	c, err := cfg()
	if err != nil {
		return err
	}
	f, err := commongraph.Follow(commongraph.FollowerConfig{
		Dir:           *dir,
		Addr:          *primary,
		WindowWidth:   *window,
		MaxLagSeq:     *maxLagSeq,
		MaxLagWindows: *maxLagWin,
		ServeStale:    *serveStale,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("cgserve: following %s into %s\n", *primary, *dir)
	src := serve.FollowSource(f)
	win := func() (int, int) {
		from, to, _ := src.Window()
		return from, to
	}
	return run(*listen, serve.New(src, c), win, f.Ready)
}

func demoMode(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	tick := fs.Duration("tick", 2*time.Second, "interval between synthetic window slides")
	listen, cfg := serveFlags(fs)
	fs.Parse(args)
	c, err := cfg()
	if err != nil {
		return err
	}

	const n, deg, width = 2000, 8, 6
	rng := rand.New(rand.NewSource(42))
	edge := func() commongraph.Edge {
		src, dst := rng.Intn(n), rng.Intn(n)
		return commongraph.Edge{
			Src: commongraph.VertexID(src),
			Dst: commongraph.VertexID(dst),
			W:   commongraph.Weight(1 + (src+3*dst)%9),
		}
	}
	base := make([]commongraph.Edge, 0, n*deg)
	seen := map[commongraph.Edge]bool{}
	for len(base) < n*deg {
		if e := edge(); e.Src != e.Dst && !seen[e] {
			seen[e] = true
			base = append(base, e)
		}
	}
	g := commongraph.New(n, base)
	churn := func() error {
		adds := make([]commongraph.Edge, 0, 40)
		for len(adds) < 40 {
			if e := edge(); e.Src != e.Dst && !seen[e] {
				seen[e] = true
				adds = append(adds, e)
			}
		}
		_, err := g.ApplyUpdates(adds, nil)
		return err
	}
	for i := 1; i < width; i++ {
		if err := churn(); err != nil {
			return err
		}
	}
	w, err := g.Watch(0, width-1)
	if err != nil {
		return err
	}
	defer w.Close()

	stop := make(chan struct{})
	defer close(stop)
	go func() { // keep the window sliding so commits and invalidation are visible
		t := time.NewTicker(*tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := churn(); err == nil {
					w.Slide() //nolint:errcheck // demo churn; next tick retries
				}
			}
		}
	}()
	fmt.Printf("cgserve: demo graph with %d vertices, window slides every %v\n", n, *tick)
	return run(*listen, serve.New(serve.WatchSource(w), c), w.Window, nil)
}
