package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func tinyConfig(t *testing.T) config {
	return config{seed: 7, seconds: 3 * time.Second, out: t.TempDir(), tiny: true}
}

// TestDeclaredMetrics pins BENCHMARK.json to the metric tables the
// binary prints from.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the binary prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(names))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the binary runs", w.Name)
		}
	}
}

// TestWorkloadsTiny runs every workload at miniature scale, untraced and
// traced, and checks that every declared metric is printed with its unit
// and that every end-to-end metric was actually measured.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := tinyConfig(t)
				cfg.trace = trace
				rep, err := workloads[name](context.Background(), cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				res, err := buildResult(rep, trace)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d %v",
						trace, res.Correct, res.Attempted, res.Failed, rep.wrong)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s missing or without unit %s: %+v", trace, d.name, d.unit, m)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCorruptAnswerFails flips one bit of one answer per workload and
// expects the run to report it as incorrect.
func TestCorruptAnswerFails(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t)
			cfg.corrupt = true
			rep, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := buildResult(rep, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted answer went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}
