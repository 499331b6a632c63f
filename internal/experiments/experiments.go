// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) plus the worked artifacts of §3 (Figures 2-7). Each
// experiment is a function returning structured results; cmd/experiments
// renders them and the repository benchmarks regenerate them under
// `go test -bench`. The configuration is frozen here so the CLI, the
// benchmarks and EXPERIMENTS.md all describe the same runs.
//
// The experiments compose core's mutation campaign (core.MutationRunOpts)
// and do not assemble their own: the engine, site table, factories and
// worker provisioning of every table and ablation come from core's target
// table, the same recipe a -pool or -isolate case server rebuilds in its
// child processes.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"concat/internal/analysis"
	"concat/internal/components/oblist"
	"concat/internal/components/product"
	"concat/internal/components/sortlist"
	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/fsm"
	"concat/internal/history"
	"concat/internal/mutation"
	"concat/internal/obs"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
)

// Config freezes the experiment parameters.
type Config struct {
	// Seed drives all generation; the experiments are fully deterministic.
	Seed int64
	// ParentOpts generate the base-class (ObList) suite.
	ParentOpts driver.Options
	// ChildOpts generate the subclass's own cases during derivation. The
	// child uses loop bound 3 so sort transactions populate the list with
	// several elements before sorting.
	ChildOpts driver.Options
	// Parallelism is the mutation-campaign worker count: each worker holds
	// its own engine (a clone of the campaign's site table) and factory, so
	// mutants execute concurrently with no shared mutable state. Zero means
	// GOMAXPROCS; 1 forces the serial campaign. Any value produces the
	// same tables — parallelism changes wall clock, never results.
	Parallelism int
	// Isolation selects crash containment for every case (reference and
	// mutant): testexec.IsolateSubprocess spawns one child per case,
	// testexec.IsolatePool dispatches batches to warm long-lived workers.
	// The published numbers are identical in every mode; isolation exists
	// so a campaign over components with genuinely fatal mutants survives.
	Isolation testexec.IsolationMode
	// Trace/Metrics, when set, thread the observability side channel through
	// every campaign the setup runs. The published tables are byte-identical
	// with or without them.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	// Store, when enabled, is the content-addressed verdict store: mutant
	// verdicts from earlier campaigns over the same (spec, suite, mutant,
	// seed, options) replay without re-execution. Warm runs produce
	// byte-identical tables; only the wall clock changes.
	Store store.Backend
}

// Default returns the configuration every published number in
// EXPERIMENTS.md was produced with.
func Default() Config {
	parent := driver.Options{Seed: 42, ExpandAlternatives: true, MaxAlternatives: 4}
	child := parent
	child.Enum = tfm.EnumOptions{LoopBound: 3}
	return Config{Seed: 42, ParentOpts: parent, ChildOpts: child}
}

// Experiment1Methods are the subclass methods mutated in Table 2.
var Experiment1Methods = []string{"Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"}

// Experiment2Methods are the base-class methods mutated in Table 3.
var Experiment2Methods = []string{"AddHead", "RemoveAt", "RemoveHead"}

// Setup is the shared experimental state: the parent suite and the derived
// subclass suite (with its provenance counts).
type Setup struct {
	Config      Config
	ParentSuite *driver.Suite
	Derived     *history.DerivedSuite
}

// NewSetup generates the parent suite and derives the subclass suite.
func NewSetup(cfg Config) (*Setup, error) {
	parentSuite, err := driver.Generate(oblist.Spec(), cfg.ParentOpts)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating parent suite: %w", err)
	}
	d, err := history.Derive(oblist.Spec(), sortlist.Spec(), parentSuite, cfg.ChildOpts)
	if err != nil {
		return nil, fmt.Errorf("experiments: deriving subclass suite: %w", err)
	}
	return &Setup{Config: cfg, ParentSuite: parentSuite, Derived: d}, nil
}

// campaign runs the mutants of methods on the named built-in target under
// suite, through core's campaign with the setup's isolation, side
// channels, verdict store and worker count.
func (s *Setup) campaign(target string, suite *driver.Suite, methods []string, progress io.Writer) (*analysis.Result, error) {
	c := s.Config
	return core.MutationRunOpts(target, suite, methods, progress, core.MutationOptions{
		Exec:        testexec.Options{Isolation: c.Isolation, Trace: c.Trace, Metrics: c.Metrics},
		Parallelism: c.Parallelism,
		Store:       c.Store,
	})
}

// Experiment1 is the paper's first experiment (Table 2): interface mutants
// in the five CSortableObList methods, run under the subclass's full test
// set (new + reused cases).
func (s *Setup) Experiment1(progress io.Writer) (*analysis.Result, error) {
	return s.campaign(sortlist.Name, s.Derived.Suite, Experiment1Methods, progress)
}

// Experiment2 is the paper's second experiment (Table 3): interface mutants
// in the three inherited CObList methods, run under the same reduced
// subclass suite — the inherited-only transactions having been skipped by
// the incremental technique. The sortable-list target carries the base
// sites too, so base methods are mutated while subclass objects run.
func (s *Setup) Experiment2(progress io.Writer) (*analysis.Result, error) {
	return s.campaign(sortlist.Name, s.Derived.Suite, Experiment2Methods, progress)
}

// ChildCoverage builds the coverage artifact of a finished subclass
// campaign (Experiment1/Experiment2): the derived CSortableObList suite
// over the subclass's transaction flow model, with the campaign's kill
// matrix and oracle attribution.
func (s *Setup) ChildCoverage(res *analysis.Result) (*cover.Artifact, error) {
	g, err := sortlist.Spec().TFM()
	if err != nil {
		return nil, err
	}
	return cover.FromCampaign(g, s.Derived.Suite, res)
}

// ParentCoverage builds the coverage artifact of a finished base-class
// campaign (Experiment2Baseline): the parent CObList suite over its own
// model.
func (s *Setup) ParentCoverage(res *analysis.Result) (*cover.Artifact, error) {
	g, err := oblist.Spec().TFM()
	if err != nil {
		return nil, err
	}
	return cover.FromCampaign(g, s.ParentSuite, res)
}

// Experiment2Baseline runs the same base-class mutants under the PARENT's
// own full suite (on ObList objects). The paper does not tabulate this run,
// but it is the reference point for its conclusion: the kills lost in
// Table 3 are the price of skipping inherited-only transactions.
func (s *Setup) Experiment2Baseline(progress io.Writer) (*analysis.Result, error) {
	return s.campaign(oblist.Name, s.ParentSuite, Experiment2Methods, progress)
}

// Counts reproduces §4's test-set size report: "A total of 233 test cases
// were generated for this class, for a test model composed of 16 nodes and
// 43 links. ... the class reused 329 test cases from its superclass."
type Counts struct {
	ParentModel tfm.Stats
	ChildModel  tfm.Stats
	ParentCases int
	NewCases    int
	ReusedCases int
	Skipped     int
}

// Counts summarizes the setup's test-set sizes.
func (s *Setup) Counts() (Counts, error) {
	pg, err := oblist.Spec().TFM()
	if err != nil {
		return Counts{}, err
	}
	cg, err := sortlist.Spec().TFM()
	if err != nil {
		return Counts{}, err
	}
	return Counts{
		ParentModel: pg.Stats(),
		ChildModel:  cg.Stats(),
		ParentCases: len(s.ParentSuite.Cases),
		NewCases:    s.Derived.NumNew,
		ReusedCases: s.Derived.NumReused,
		Skipped:     s.Derived.NumSkipped,
	}, nil
}

// Render prints the counts next to the paper's numbers.
func (c Counts) Render(w io.Writer) {
	fmt.Fprintf(w, "Test model sizes and test-set counts (paper §4)\n")
	fmt.Fprintf(w, "  ObList model:           %s\n", c.ParentModel)
	fmt.Fprintf(w, "  SortableObList model:   %s   (paper: 16 nodes, 43 links)\n", c.ChildModel)
	fmt.Fprintf(w, "  ObList test cases:      %d\n", c.ParentCases)
	fmt.Fprintf(w, "  subclass new cases:     %d   (paper: 233)\n", c.NewCases)
	fmt.Fprintf(w, "  subclass reused cases:  %d   (paper: 329)\n", c.ReusedCases)
	fmt.Fprintf(w, "  parent cases skipped:   %d   (inherited-only transactions)\n", c.Skipped)
}

// Table1 renders the paper's Table 1: the interface mutation operators.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Interface mutation operators applied")
	fmt.Fprintf(w, "  %-15s %s\n", "Operator", "Description")
	for _, op := range mutation.AllOperators {
		fmt.Fprintf(w, "  %-15s %s\n", op, op.Description())
	}
	fmt.Fprintln(w, "  where G(R2) = globals used in R2; L(R2) = locals defined in R2;")
	fmt.Fprintln(w, "  E(R2) = globals not used in R2; RC = required constants (NULL, MAXINT, MININT, ...)")
}

// Figure2 writes the Product TFM in DOT with the use-case path highlighted
// and lists the enumerated transactions.
func Figure2(w io.Writer) error {
	g, err := product.Spec().TFM()
	if err != nil {
		return err
	}
	hl := tfm.Transaction{}
	for _, n := range product.UseCasePath() {
		hl.Path = append(hl.Path, tfm.NodeID(n))
	}
	if err := g.WriteDOT(w, hl); err != nil {
		return err
	}
	ts, err := g.Transactions(tfm.EnumOptions{LoopBound: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n// %d transactions at loop bound 1; highlighted use case: %s\n", len(ts), hl)
	return nil
}

// Figure3 writes the Product t-spec in the paper's notation.
func Figure3(w io.Writer) error {
	return product.Spec().Format(w)
}

// Figure6 emits the generated Go driver source for the Product component —
// the "specific driver" of Figures 6-7.
func Figure6(w io.Writer, seed int64) error {
	suite, err := driver.Generate(product.Spec(), driver.Options{Seed: seed})
	if err != nil {
		return err
	}
	return driver.Emit(w, suite, driver.EmitOptions{
		ComponentImport: "concat/internal/components/product",
		FactoryExpr:     "product.NewFactory()",
	})
}

// OracleAblation measures the contribution of each oracle ingredient to
// experiment 1's kill rate: the full harness, assertions disabled, and
// assertions-only (no golden output comparison). It quantifies the paper's
// observation that "assertions, besides improving testability, help to
// improve fault-revealing effectiveness [but] do not constitute an
// effective oracle" alone.
type OracleAblation struct {
	FullScore           float64
	NoAssertionsScore   float64
	AssertionsOnlyScore float64
}

// RunOracleAblation executes experiment 1 three times under the different
// oracle configurations, in process with no verdict store or side channels
// whatever the setup's configuration.
func (s *Setup) RunOracleAblation() (OracleAblation, error) {
	run := func(exec testexec.Options, assertionsOnly bool) (float64, error) {
		res, err := core.MutationRunOpts(sortlist.Name, s.Derived.Suite, Experiment1Methods, nil,
			core.MutationOptions{Exec: exec, Parallelism: s.Config.Parallelism})
		if err != nil {
			return 0, err
		}
		if !assertionsOnly {
			return res.Tabulate().Total.Score(), nil
		}
		// Assertions-only: count only crash and assertion kills.
		killed, equivalent := 0, 0
		for _, mr := range res.Mutants {
			switch {
			case mr.Killed && mr.Reason != analysis.KillOutputDiff:
				killed++
			case mr.Equivalent():
				equivalent++
			}
		}
		denom := len(res.Mutants) - equivalent
		if denom <= 0 {
			return 1, nil
		}
		return float64(killed) / float64(denom), nil
	}
	var out OracleAblation
	var err error
	if out.FullScore, err = run(testexec.Options{}, false); err != nil {
		return out, err
	}
	if out.NoAssertionsScore, err = run(testexec.Options{SkipInvariantChecks: true}, false); err != nil {
		return out, err
	}
	if out.AssertionsOnlyScore, err = run(testexec.Options{}, true); err != nil {
		return out, err
	}
	return out, nil
}

// Render prints the oracle ablation.
func (o OracleAblation) Render(w io.Writer) {
	fmt.Fprintln(w, "Oracle ablation (experiment 1 mutation score)")
	fmt.Fprintf(w, "  full oracle (assertions + output comparison):  %5.1f%%\n", o.FullScore*100)
	fmt.Fprintf(w, "  without invariant checking:                    %5.1f%%\n", o.NoAssertionsScore*100)
	fmt.Fprintf(w, "  assertions/crashes only (no output oracle):    %5.1f%%\n", o.AssertionsOnlyScore*100)
}

// LoopBoundAblation measures suite size and experiment-1 score as the
// enumeration loop bound k varies — the design decision of DESIGN.md §5.2.
type LoopBoundAblation struct {
	LoopBound int
	Cases     int
	Score     float64
}

// RunLoopBoundAblation varies the child generation loop bound.
func (s *Setup) RunLoopBoundAblation(bounds []int) ([]LoopBoundAblation, error) {
	var out []LoopBoundAblation
	for _, k := range bounds {
		cfg := s.Config
		cfg.ChildOpts.Enum.LoopBound = k
		setup, err := NewSetup(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: loop bound %d: %w", k, err)
		}
		res, err := setup.Experiment1(nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: loop bound %d: %w", k, err)
		}
		out = append(out, LoopBoundAblation{
			LoopBound: k,
			Cases:     len(setup.Derived.Suite.Cases),
			Score:     res.Tabulate().Total.Score(),
		})
	}
	return out, nil
}

// CriterionAblation compares coverage criteria on the parent component:
// suite size and base-mutant kill rate under all-transactions, all-links
// and all-nodes.
type CriterionAblation struct {
	Criterion string
	Cases     int
	Score     float64
}

// RunCriterionAblation generates ObList suites under each criterion and
// scores them against the base-method mutants, in process on GOMAXPROCS
// workers.
func RunCriterionAblation(seed int64) ([]CriterionAblation, error) {
	var out []CriterionAblation
	for _, crit := range []tfm.Criterion{tfm.CoverTransactions, tfm.CoverLinks, tfm.CoverNodes} {
		opts := driver.Options{Seed: seed, Criterion: crit, ExpandAlternatives: true, MaxAlternatives: 4}
		suite, err := driver.Generate(oblist.Spec(), opts)
		if err != nil {
			return nil, err
		}
		res, err := core.MutationRunOpts(oblist.Name, suite, Experiment2Methods, nil, core.MutationOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, CriterionAblation{
			Criterion: crit.String(),
			Cases:     len(suite.Cases),
			Score:     res.Tabulate().Total.Score(),
		})
	}
	return out, nil
}

// RenderResult renders an analysis result as its paper table plus the
// setup's provenance line.
func RenderResult(w io.Writer, title string, res *analysis.Result) error {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
	return res.Tabulate().Render(w)
}

// ModelScaling compares the two test-model notations on the same component
// at one container capacity: the FSM's size and test count grow with the
// capacity, the TFM's stay fixed — the paper's §3.2 argument for choosing
// the transaction flow model ("it scales up easier than finite state
// machine models"), made measurable.
type ModelScaling struct {
	Capacity       int
	FSMStates      int
	FSMTransitions int
	FSMTests       int
	TFMNodes       int // constant across capacities
	TFMEdges       int
	TFMTests       int // constant: the bounded transaction enumeration
}

// RunModelScaling builds bounded-list FSMs at the given capacities, verifies
// their tours actually pass against the real ObList component, and pairs
// the sizes with the (fixed) TFM numbers.
func RunModelScaling(capacities []int) ([]ModelScaling, error) {
	g, err := oblist.Spec().TFM()
	if err != nil {
		return nil, err
	}
	tfmTests, err := g.Transactions(tfm.EnumOptions{LoopBound: 1})
	if err != nil {
		return nil, err
	}
	var out []ModelScaling
	for _, capacity := range capacities {
		m, err := fsm.BoundedListMachine(capacity)
		if err != nil {
			return nil, err
		}
		tours, err := m.AllTransitionsTour()
		if err != nil {
			return nil, err
		}
		suite := fsm.SuiteFromTour(m, tours, "ObList", "m1", "~ObList", "m3")
		rep, err := testexec.Run(suite, oblist.NewFactory(), testexec.Options{})
		if err != nil {
			return nil, err
		}
		if !rep.AllPassed() {
			return nil, fmt.Errorf("experiments: FSM tour at capacity %d failed against the component", capacity)
		}
		out = append(out, ModelScaling{
			Capacity:       capacity,
			FSMStates:      m.NumStates(),
			FSMTransitions: m.NumTransitions(),
			FSMTests:       len(tours),
			TFMNodes:       g.NumNodes(),
			TFMEdges:       g.NumEdges(),
			TFMTests:       len(tfmTests),
		})
	}
	return out, nil
}
