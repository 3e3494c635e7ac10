package bench

import (
	"fmt"
	"io"
	"sort"

	"commongraph/internal/kickstarter"
)

// Experiment is a named runnable experiment.
type Experiment struct {
	Name  string // cgbench -exp name
	Paper string // the table/figure it regenerates
	Run   func(Params) (*Table, error)
}

// extra holds experiments registered from outside this package. Some
// experiments exercise the public commongraph API, which this package
// cannot import (the root package's own tests import bench — the import
// would cycle through the test binary); they live in subpackages and
// register themselves at init, and only binaries that import them (cgbench)
// see them.
var extra []Experiment

// Register adds an externally defined experiment to the registry. Call it
// from init only — the registry is not synchronized.
func Register(e Experiment) { extra = append(extra, e) }

// Experiments lists every regenerable table and figure plus the ablations
// and any registered extras.
func Experiments() []Experiment {
	return append(builtins(), extra...)
}

func builtins() []Experiment {
	return []Experiment{
		{Name: "fig1", Paper: "Figure 1", Run: Fig1},
		{Name: "table2", Paper: "Table 2", Run: Table2},
		{Name: "table4", Paper: "Table 4", Run: Table4},
		{Name: "table5", Paper: "Table 5", Run: Table5},
		{Name: "fig8", Paper: "Figure 8", Run: Fig8},
		{Name: "fig9", Paper: "Figure 9", Run: Fig9},
		{Name: "fig10", Paper: "Figure 10", Run: Fig10},
		{Name: "fig11", Paper: "Figure 11", Run: Fig11},
		{Name: "ablation-steiner", Paper: "Ablation A1", Run: AblationSteiner},
		{Name: "ablation-scheduler", Paper: "Ablation A2", Run: AblationScheduler},
		{Name: "ablation-representation", Paper: "Ablation A3", Run: AblationRepresentation},
		{Name: "ablation-scale", Paper: "Ablation A4", Run: AblationScale},
		{Name: "ablation-baselines", Paper: "Ablation A5", Run: AblationBaselines},
		{Name: "store", Paper: "Persistence", Run: StorePersistence},
		{Name: "repl", Paper: "Replication", Run: Replication},
		{Name: "obs-overhead", Paper: "Observability overhead gate", Run: ObsOverhead},
	}
}

// ByName returns the named experiment, or false.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns all experiment names, sorted.
func Names() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// RunAndPrint executes one experiment and prints its table.
func RunAndPrint(w io.Writer, name string, p Params) error {
	e, ok := ByName(name)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	t, err := e.Run(p)
	if err != nil {
		return err
	}
	t.Fprint(w)
	return nil
}

// newMutableFromWorkload builds a KickStarter mutable graph from a
// workload's base snapshot (helper shared by ablations).
func newMutableFromWorkload(w *Workload) *kickstarter.MutableGraph {
	return kickstarter.NewMutableGraph(w.N, w.Base)
}
