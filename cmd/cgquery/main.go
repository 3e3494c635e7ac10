// Command cgquery evaluates a query over a snapshot window of a dataset
// produced by cggen, with any of the evaluation strategies.
//
// Usage:
//
//	cgquery -data /tmp/lj -algo SSSP -source 0 -strategy work-sharing
//	cgquery -data /tmp/lj -algo BFS -from 2 -to 8 -strategy kickstarter -vertex 17
//	cgquery -data /tmp/lj -strategy work-sharing-parallel -trace /tmp/cg.trace.json -metrics
//	cgquery -store /tmp/lj.cgstore -algo SSSP -strategy work-sharing
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"commongraph"
	"commongraph/internal/dataset"
)

func main() {
	// Subcommand dispatch before flag.Parse: "cgquery top" is the live
	// ops dashboard (see top.go); everything else is the classic
	// flag-driven one-shot query evaluator.
	if len(os.Args) > 1 && os.Args[1] == "top" {
		runTop(os.Args[2:])
		return
	}
	var (
		data     = flag.String("data", "", "dataset directory from cggen (this or -store is required)")
		storeDir = flag.String("store", "", "durable cgstore directory (cggen -store / EvolvingGraph.Persist)")
		algoName = flag.String("algo", "SSSP", "algorithm: BFS, SSSP, SSWP, SSNP, Viterbi")
		source   = flag.Uint("source", 0, "query source vertex")
		from     = flag.Int("from", 0, "first snapshot of the window")
		to       = flag.Int("to", -1, "last snapshot of the window (-1 = latest)")
		strategy = flag.String("strategy", "direct-hop", "kickstarter | independent | direct-hop | direct-hop-parallel | work-sharing | work-sharing-parallel")
		vertex   = flag.Int("vertex", -1, "also print this vertex's value at each snapshot")
		plan     = flag.Bool("plan", false, "print the schedule comparison instead of evaluating")
		optimal  = flag.Bool("optimal", false, "use the exact interval-DP Steiner schedule (work-sharing strategies and -plan)")
		tracePth = flag.String("trace", "", "write a Chrome trace of the evaluation: a .json path, or 'log' to stream spans to stderr")
		metrics  = flag.Bool("metrics", false, "dump the metric registry in Prometheus text format to stderr when done")
		mapped   = flag.Bool("mmap", false, "with -store: mmap the binary segments instead of materializing them (out-of-core cold open)")
	)
	flag.Parse()
	if (*data == "") == (*storeDir == "") {
		fmt.Fprintln(os.Stderr, "cgquery: exactly one of -data and -store is required")
		flag.Usage()
		os.Exit(2)
	}
	var g *commongraph.EvolvingGraph
	if *storeDir != "" {
		// The mapped open keeps the store handle alive until the query is
		// done — segment views alias the mappings, which Close releases.
		gs, err := commongraph.OpenStoreWith(*storeDir, commongraph.StoreOptions{MapSegments: *mapped})
		if err != nil {
			fail(err)
		}
		defer gs.Close()
		g = gs.Graph()
	} else {
		if *mapped {
			fail(fmt.Errorf("-mmap needs -store (a durable segment directory)"))
		}
		store, err := dataset.Load(*data)
		if err != nil {
			fail(err)
		}
		g = commongraph.FromStore(store)
	}
	if *to < 0 {
		*to = g.NumSnapshots() - 1
	}

	if *plan {
		p, err := g.Plan(*from, *to, commongraph.Options{OptimalSchedule: *optimal})
		if err != nil {
			fail(err)
		}
		fmt.Printf("window [%d,%d]: %d snapshots, common graph %d edges\n",
			*from, *to, p.Snapshots, p.CommonEdges)
		fmt.Printf("direct-hop additions:   %d\n", p.DirectHopAdditions)
		fmt.Printf("work-sharing additions: %d\n", p.WorkSharingAdditions)
		fmt.Println("schedule tree:")
		fmt.Print(p.Tree)
		return
	}

	a, ok := commongraph.AlgorithmByName(*algoName)
	if !ok {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	strat, err := commongraph.ParseStrategy(*strategy)
	if err != nil {
		fail(err)
	}

	opts := commongraph.Options{KeepValues: *vertex >= 0, OptimalSchedule: *optimal}
	var tracer *commongraph.Tracer
	if *tracePth != "" {
		switch strings.ToLower(*tracePth) {
		case "log", "stderr", "1":
			tracer = commongraph.NewTracer(commongraph.WithTraceLogger(
				slog.New(slog.NewTextHandler(os.Stderr, nil))))
		default:
			tracer = commongraph.NewTracer()
		}
		opts.Trace = tracer
	}
	res, err := g.Run(context.Background(), commongraph.Request{
		Query: commongraph.Query{
			Algorithm: a,
			Source:    commongraph.VertexID(*source),
		},
		Window:   commongraph.Window{From: *from, To: *to},
		Strategy: strat,
		Options:  opts,
	})
	if err != nil {
		fail(err)
	}

	if tracer != nil && strings.ToLower(*tracePth) != "log" &&
		strings.ToLower(*tracePth) != "stderr" && *tracePth != "1" {
		f, ferr := os.Create(*tracePth)
		if ferr != nil {
			fail(ferr)
		}
		if werr := commongraph.WriteChromeTrace(tracer, f); werr != nil {
			f.Close()
			fail(werr)
		}
		if cerr := f.Close(); cerr != nil {
			fail(cerr)
		}
		fmt.Fprintf(os.Stderr, "cgquery: wrote %d trace events to %s\n", len(tracer.Events()), *tracePth)
	}
	if *metrics {
		if werr := commongraph.WriteMetricsPrometheus(os.Stderr); werr != nil {
			fail(werr)
		}
	}
	if werr := commongraph.WriteEnvTrace(); werr != nil {
		fail(werr)
	}

	fmt.Printf("%s over snapshots [%d,%d] with %s: total %v\n", a.Name(), *from, *to, strat, res.Timings.Total)
	fmt.Printf("  initial compute %v, incremental add %v, incremental delete %v, mutation/overlay %v\n",
		res.Timings.InitialCompute, res.Timings.IncrementalAdd,
		res.Timings.IncrementalDelete, res.Timings.Mutation)
	fmt.Printf("  additions processed %d, deletions processed %d\n",
		res.AdditionsProcessed, res.DeletionsProcessed)
	if res.MaxHopTime > 0 {
		fmt.Printf("  longest independent hop: %v\n", res.MaxHopTime)
	}
	for _, s := range res.Snapshots {
		line := fmt.Sprintf("  snapshot %-3d reached %-8d checksum %016x", s.Index, s.Reached, s.Checksum)
		if *vertex >= 0 && *vertex < len(s.Values) {
			v := s.Values[*vertex]
			if a.Name() == "Viterbi" {
				line += fmt.Sprintf("  value(%d) = %.6f", *vertex, commongraph.ViterbiProbability(v))
			} else if v == commongraph.Infinity {
				line += fmt.Sprintf("  value(%d) = unreachable", *vertex)
			} else {
				line += fmt.Sprintf("  value(%d) = %d", *vertex, v)
			}
		}
		fmt.Println(line)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cgquery: %v\n", err)
	os.Exit(1)
}
