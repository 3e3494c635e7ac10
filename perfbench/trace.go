package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory: one per call the
// benchmark makes into a layer, named after the layer. Spans on one track
// (tid) nest by containment, which gives each layer its self time. A nil
// recorder records nothing, so untraced runs share the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	name       string
	tid        int
	start, end time.Time
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished span.
func (r *recorder) add(name string, tid int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{name: name, tid: tid, start: start, end: end})
	r.mu.Unlock()
}

// time runs f as one span and returns its duration.
func (r *recorder) time(name string, tid int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, tid, start, end)
	return end.Sub(start)
}

// layerStats is the total and self time of every span with one name.
type layerStats struct {
	count       int
	total, self time.Duration
}

// stats computes per-name totals and self times. A span's self time is
// its duration minus the part covered by spans nested in it on the same
// track.
func (r *recorder) stats() map[string]*layerStats {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		return a.end.After(b.end)
	})
	out := map[string]*layerStats{}
	self := make([]time.Duration, len(spans))
	var stack []int
	for i, s := range spans {
		d := s.end.Sub(s.start)
		self[i] = d
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.tid == s.tid && !s.start.Before(top.start) && !s.end.After(top.end) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= d
		}
		stack = append(stack, i)
	}
	for i, s := range spans {
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		ls.count++
		ls.total += s.end.Sub(s.start)
		ls.self += self[i]
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event JSON file, which
// chrome://tracing and Perfetto open.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Sub(r.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3}
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the per-layer self-time table, largest first.
func selfTable(st map[string]*layerStats) string {
	names := make([]string, 0, len(st))
	var all time.Duration
	for n, s := range st {
		names = append(names, n)
		all += s.self
	}
	sort.Slice(names, func(i, j int) bool {
		if st[names[i]].self != st[names[j]].self {
			return st[names[i]].self > st[names[j]].self
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s %7s\n", "layer", "spans", "total_s", "self_s", "self_%")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(&b, "%-28s %8d %12.6f %12.6f %6.2f%%\n", n, s.count, s.total.Seconds(), s.self.Seconds(),
			100*ratio(s.self.Seconds(), all.Seconds()))
	}
	return b.String()
}

// writeTraceOutputs writes the Chrome trace and the self-time table for
// one traced run and adds the table to the run's printed notes.
func writeTraceOutputs(r *recorder, cfg config, workload string, rep *report) error {
	st := r.stats()
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", workload, cfg.seed))
	if err := r.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	table := selfTable(st)
	if err := os.WriteFile(base+".selftime.txt", []byte(table), 0o644); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "trace: "+base+".trace.json", "self time per layer:")
	for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
		rep.notes = append(rep.notes, "  "+line)
	}
	return nil
}
