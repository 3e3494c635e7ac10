package commongraph

import (
	"context"
	"strings"
	"testing"
)

// TestRunMatchesEvaluate pins the deprecated-wrapper contract: Run with a
// background context must produce byte-identical results to the legacy
// Evaluate call for every strategy.
func TestRunMatchesEvaluate(t *testing.T) {
	g, _ := buildEvolving(t, 19, 4, 60, 60)
	q := Query{Algorithm: SSSP, Source: 0}
	for _, s := range Strategies() {
		old, err := g.Evaluate(q, 0, 4, s, Options{})
		if err != nil {
			t.Fatalf("%v: Evaluate: %v", s, err)
		}
		res, err := g.Run(context.Background(), Request{
			Query:    q,
			Window:   Window{From: 0, To: 4},
			Strategy: s,
		})
		if err != nil {
			t.Fatalf("%v: Run: %v", s, err)
		}
		if len(res.Snapshots) != len(old.Snapshots) {
			t.Fatalf("%v: snapshot count %d vs %d", s, len(res.Snapshots), len(old.Snapshots))
		}
		for i := range res.Snapshots {
			if res.Snapshots[i].Checksum != old.Snapshots[i].Checksum ||
				res.Snapshots[i].Reached != old.Snapshots[i].Reached {
				t.Fatalf("%v snapshot %d: Run and Evaluate disagree", s, i)
			}
		}
	}
}

// TestRunNilContext documents that a nil context means Background.
func TestRunNilContext(t *testing.T) {
	g, _ := buildEvolving(t, 23, 2, 30, 30)
	res, err := g.Run(nil, Request{
		Query:    Query{Algorithm: BFS, Source: 0},
		Window:   Window{From: 0, To: 2},
		Strategy: DirectHop,
	})
	if err != nil || len(res.Snapshots) != 3 {
		t.Fatalf("nil ctx: res=%v err=%v", res, err)
	}
}

// TestRunCancelledContext: a context cancelled before the call must abort
// the evaluation with the context's error.
func TestRunCancelledContext(t *testing.T) {
	g, _ := buildEvolving(t, 29, 3, 40, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.Run(ctx, Request{
		Query:    Query{Algorithm: BFS, Source: 0},
		Window:   Window{From: 0, To: 3},
		Strategy: WorkSharing,
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunContextParameterWins: Run's context parameter overrides any
// context smuggled in through the deprecated Options.Context field.
func TestRunContextParameterWins(t *testing.T) {
	g, _ := buildEvolving(t, 31, 2, 30, 30)
	stale, cancelStale := context.WithCancel(context.Background())
	cancelStale()
	res, err := g.Run(context.Background(), Request{
		Query:    Query{Algorithm: BFS, Source: 0},
		Window:   Window{From: 0, To: 2},
		Strategy: DirectHop,
		Options:  Options{Context: stale},
	})
	if err != nil || len(res.Snapshots) != 3 {
		t.Fatalf("parameter should win over Options.Context: res=%v err=%v", res, err)
	}
}

// TestWatcherRunMatchesEvaluate: the Watcher's Run must agree with its
// deprecated Evaluate, and the request's Window must be ignored in favor
// of the maintained window.
func TestWatcherRunMatchesEvaluate(t *testing.T) {
	g, _ := buildEvolving(t, 37, 4, 50, 50)
	w, err := g.Watch(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Algorithm: SSSP, Source: 0}
	old, err := w.Evaluate(q, WorkSharing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), Request{
		Query:    q,
		Window:   Window{From: 99, To: 7}, // nonsense on purpose: maintained window wins
		Strategy: WorkSharing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != len(old.Snapshots) {
		t.Fatalf("snapshot count %d vs %d", len(res.Snapshots), len(old.Snapshots))
	}
	for i := range res.Snapshots {
		if res.Snapshots[i].Checksum != old.Snapshots[i].Checksum {
			t.Fatalf("snapshot %d: Watcher Run and Evaluate disagree", i)
		}
	}
}

// TestRunMultiMatchesEvaluateMulti pins the multi-query wrapper pair.
func TestRunMultiMatchesEvaluateMulti(t *testing.T) {
	g, _ := buildEvolving(t, 41, 3, 40, 40)
	queries := []Query{
		{Algorithm: BFS, Source: 0},
		{Algorithm: SSSP, Source: 1},
	}
	old, err := g.EvaluateMulti(queries, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunMulti(context.Background(), queries, Window{From: 0, To: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(old) {
		t.Fatalf("result count %d vs %d", len(res), len(old))
	}
	for qi := range res {
		for i := range res[qi].Snapshots {
			if res[qi].Snapshots[i].Checksum != old[qi].Snapshots[i].Checksum {
				t.Fatalf("query %d snapshot %d: RunMulti and EvaluateMulti disagree", qi, i)
			}
		}
	}
}

// TestParseStrategyRoundTrip: every strategy parses back from both its
// Slug and its String form, case-insensitively.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		for _, form := range []string{s.Slug(), s.String(), strings.ToUpper(s.Slug())} {
			got, err := ParseStrategy(form)
			if err != nil {
				t.Fatalf("ParseStrategy(%q): %v", form, err)
			}
			if got != s {
				t.Fatalf("ParseStrategy(%q) = %v, want %v", form, got, s)
			}
		}
	}
}

// TestParseStrategyAliases covers the documented short forms.
func TestParseStrategyAliases(t *testing.T) {
	aliases := map[string]Strategy{
		"ks":    KickStarter,
		"indep": Independent,
		"dh":    DirectHop,
		"dhp":   DirectHopParallel,
		"ws":    WorkSharing,
		"wsp":   WorkSharingParallel,
	}
	for in, want := range aliases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestParseStrategyUnknown: an unknown name errors and the message lists
// the valid slugs so CLI users can self-correct.
func TestParseStrategyUnknown(t *testing.T) {
	_, err := ParseStrategy("quantum-hop")
	if err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if !strings.Contains(err.Error(), "work-sharing") || !strings.Contains(err.Error(), "kickstarter") {
		t.Fatalf("error should list valid strategies, got: %v", err)
	}
}

// TestPlanOptimalSchedule: the interval-DP solver must never cost more
// than the greedy schedule, and both plans must agree on the
// schedule-independent quantities.
func TestPlanOptimalSchedule(t *testing.T) {
	g, _ := buildEvolving(t, 43, 6, 80, 80)
	greedy, err := g.Plan(0, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := g.Plan(0, 6, Options{OptimalSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if optimal.WorkSharingAdditions > greedy.WorkSharingAdditions {
		t.Fatalf("optimal schedule costs %d > greedy %d",
			optimal.WorkSharingAdditions, greedy.WorkSharingAdditions)
	}
	if optimal.Snapshots != greedy.Snapshots ||
		optimal.CommonEdges != greedy.CommonEdges ||
		optimal.DirectHopAdditions != greedy.DirectHopAdditions {
		t.Fatalf("schedule-independent plan fields disagree: %+v vs %+v", optimal, greedy)
	}
}

// TestWindowWidth nails the inclusive-range arithmetic.
func TestWindowWidth(t *testing.T) {
	if w := (Window{From: 0, To: 0}).Width(); w != 1 {
		t.Fatalf("width of [0,0] = %d", w)
	}
	if w := (Window{From: 2, To: 6}).Width(); w != 5 {
		t.Fatalf("width of [2,6] = %d", w)
	}
}

// TestEdgesEvaluated: the evaluated-edge count surfaces on the public
// result for every strategy — the quota service weights debits by it.
func TestEdgesEvaluated(t *testing.T) {
	g, _ := buildEvolving(t, 17, 4, 30, 20)
	q := Query{Algorithm: BFS, Source: 0}
	for _, s := range Strategies() {
		res, err := g.Run(context.Background(), Request{
			Query:    q,
			Window:   Window{From: 0, To: 4},
			Strategy: s,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Slug(), err)
		}
		if res.EdgesEvaluated <= 0 {
			t.Fatalf("%s: EdgesEvaluated = %d, want > 0", s.Slug(), res.EdgesEvaluated)
		}
	}
}
