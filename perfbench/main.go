// Command perfbench is the repository's benchmark. One binary runs each
// of three seeded workloads, checks every answer it gets, and prints the
// metrics BENCHMARK.json names:
//
//	window50          the paper's Table 4 shape: KickStarter, Direct-Hop and
//	                  Work-Sharing over a 50-snapshot LJ-sim window
//	serve-live        the api/v1 query service over a live, sliding Watcher
//	ingest-replicate  durable ingest into a GraphStore with a replicating
//	                  follower, then cold reopens of the mapped store
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload window50 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 the same workload runs with the
// benchmark's own calls into each module timed as spans; the last line
// then carries the per-layer metrics, and a Chrome trace_event file and a
// self-time table are written under -out. Inputs are generated from the
// seed before any timer starts; the program only ever sees the generated
// inputs. Any failed answer check makes the run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload prints with --trace 0.
// Each workload gives them its own meaning; see the workload files.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
}

// perLayer are the traced run's metrics. A workload that never enters a
// layer reports it as 0: that layer did no work on that workload.
var perLayer = []metricDef{
	{"loadgen.inputs_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	// Each workload's write path: ApplyUpdates in window50's set-up,
	// Watcher.Slide in serve-live, Ingestor.Flush in ingest-replicate.
	{"commit.p50_s", "s"},
	{"commit.p99_s", "s"},
	// window50: planning, solve, overlays, engine passes, KickStarter.
	{"latency.ks_p50_s", "s"},
	{"latency.dh_p50_s", "s"},
	{"latency.ws_p50_s", "s"},
	{"core.rep_s", "s"},
	{"core.tg_s", "s"},
	{"core.schedule_s", "s"},
	{"core.checksum_s", "s"},
	{"engine.common_solve_s", "s"},
	{"engine.add_s", "s"},
	{"engine.state_clone_s", "s"},
	{"engine.edges_pushed", "count"},
	{"engine.improved", "count"},
	{"engine.improved_per_edge", "ratio"},
	{"delta.overlay_build_s", "s"},
	{"core.ws_exec_s", "s"},
	{"core.ws_exec.add_s", "s"},
	{"core.ws_exec.overlay_s", "s"},
	{"core.ws_exec.clone_s", "s"},
	{"snapshot.get_version_s", "s"},
	{"kickstarter.init_s", "s"},
	{"kickstarter.mutate_s", "s"},
	{"kickstarter.trim_s", "s"},
	{"kickstarter.add_s", "s"},
	{"additions_streamed.ks", "count"},
	{"additions_streamed.dh", "count"},
	{"additions_streamed.ws", "count"},
	{"deletions_streamed.ks", "count"},
	{"ws_share_ratio", "ratio"},
	{"unattributed_s.ks", "s"},
	{"unattributed_s.dh", "s"},
	{"unattributed_s.ws", "s"},
	// serve-live: the HTTP round trip split at the handler and the source.
	{"core.slide_s", "s"},
	{"serve.rtt_s", "s"},
	{"serve.handler_s", "s"},
	{"serve.eval_s", "s"},
	{"serve.admit_cache_encode_s", "s"},
	{"client.transport_s", "s"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"plan.shared_ratio", "ratio"},
	{"plan.sched_hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"serve.latency_p99_s", "s"},
	{"loadgen.late_p99_s", "s"},
	// ingest-replicate: the GraphStore commit path, shipping, reopen.
	{"ingest.compact_s", "s"},
	{"store.journal_s", "s"},
	{"store.append_s", "s"},
	{"snapshot.check_batch_s", "s"},
	{"snapshot.new_version_s", "s"},
	{"store.bytes_per_commit", "bytes"},
	{"repl.ship_replay_s", "s"},
	{"repl.lag_p99_s", "s"},
	{"store.open_s", "s"},
	{"store.snapshot_s", "s"},
	{"engine.first_query_s", "s"},
	{"reopen_s", "s"},
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string // directory for store files and trace output
	tiny    bool   // miniature inputs, for the benchmark's own tests
	// corrupt flips one bit of the first answer the workload receives,
	// so tests can prove the answer checks fail the run.
	corrupt bool
}

// report is what a workload run returns.
type report struct {
	attempted int64
	failed    int64
	wrong     []string // failed answer checks
	metrics   map[string]float64
	params    map[string]any // workload parameters, for the host block
	notes     []string       // extra lines printed before the result
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, params: map[string]any{}}
}

// mismatch records a failed answer check; it also counts as a failed
// operation.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.wrong) == 0 }

// workloads maps the --workload names to their runners.
var workloads = map[string]func(context.Context, config) (*report, error){
	"window50":         runWindow50,
	"serve-live":       runServeLive,
	"ingest-replicate": runIngestReplicate,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metric set the run prints. A missing
// end-to-end metric is a bug in the workload; a missing per-layer metric
// is a layer the workload never entered.
func buildResult(rep *report, trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed the inputs and the operation sequence are generated from")
		seconds  = flag.Float64("seconds", 25, "measured duration of the run")
		trace    = flag.Int("trace", 0, "1 times each layer and prints the per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench-out", "directory for store files and trace output")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out}
	ctx := context.Background() //cgvet:ignore ctxflow -- the benchmark command's process root; every workload runs under it
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printHost(os.Stdout, *workload, cfg, rep)
	res, err := buildResult(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, w := range rep.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: answer check failed:", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line)) //cgvet:ignore obsdiscipline -- the benchmark is a command; its result line goes to stdout by contract
	if !res.Correct {
		os.Exit(1)
	}
}

// printHost writes the host block: what ran, where, and with which
// parameters, so two results can be compared knowing their conditions.
func printHost(w *os.File, workload string, cfg config, rep *report) {
	host := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"params":     rep.params,
	}
	b, _ := json.Marshal(host) // only plain values; cannot fail
	fmt.Fprintf(w, "# host %s\n", b)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
