package analysis

import (
	"bytes"
	"strings"
	"testing"

	"concat/internal/component"
	"concat/internal/components/account"
	"concat/internal/components/oblist"
	"concat/internal/driver"
	"concat/internal/mutation"
	"concat/internal/testexec"
)

// accountAnalysis wires the small account component for fast runs.
func accountAnalysis(t *testing.T) (*Analysis, []mutation.Mutant) {
	t.Helper()
	eng := mutation.NewEngine()
	eng.MustRegisterSites(account.Sites()...)
	suite, err := driver.Generate(account.Spec(), driver.Options{
		Seed: 3, ExpandAlternatives: true, MaxAlternatives: 4,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a := &Analysis{
		Engine:  eng,
		Factory: account.NewFactoryWithEngine(eng),
		Suite:   suite,
	}
	return a, eng.Enumerate(nil, nil)
}

func TestAnalysisValidation(t *testing.T) {
	if _, err := (&Analysis{}).Run(nil); err == nil {
		t.Error("empty analysis should fail")
	}
}

func TestAnalysisRunAccount(t *testing.T) {
	a, mutants := accountAnalysis(t)
	if len(mutants) == 0 {
		t.Fatal("no mutants")
	}
	var progress bytes.Buffer
	a.Progress = &progress
	res, err := a.Run(mutants)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Mutants) != len(mutants) {
		t.Fatalf("results = %d, mutants = %d", len(res.Mutants), len(mutants))
	}
	killed := 0
	for _, mr := range res.Mutants {
		if mr.Killed {
			killed++
			if mr.Reason == 0 || mr.KillingCase == "" {
				t.Errorf("killed mutant %s lacks reason/case", mr.Mutant.ID)
			}
		}
	}
	if killed == 0 {
		t.Error("no mutants killed — the suite should catch withdraw faults")
	}
	if progress.Len() == 0 {
		t.Error("progress writer received nothing")
	}
	// The engine must be disarmed afterwards.
	if _, active := a.Engine.Active(); active {
		t.Error("engine left armed after analysis")
	}
}

func TestAnalysisDeterministic(t *testing.T) {
	a, mutants := accountAnalysis(t)
	r1, err := a.Run(mutants)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Run(mutants)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Mutants {
		if r1.Mutants[i].Killed != r2.Mutants[i].Killed ||
			r1.Mutants[i].Reason != r2.Mutants[i].Reason {
			t.Fatalf("mutant %s verdict not deterministic", r1.Mutants[i].Mutant.ID)
		}
	}
}

func TestTabulateAndRender(t *testing.T) {
	a, mutants := accountAnalysis(t)
	res, err := a.Run(mutants)
	if err != nil {
		t.Fatal(err)
	}
	table := res.Tabulate()
	if table.Component != account.Name {
		t.Errorf("table component = %q", table.Component)
	}
	if table.Total.Mutants != len(mutants) {
		t.Errorf("total mutants = %d, want %d", table.Total.Mutants, len(mutants))
	}
	sumRows := 0
	for _, row := range table.Rows {
		sumRows += row.Mutants
		if row.Killed > row.Mutants {
			t.Errorf("row %s kills exceed mutants", row.Operator)
		}
		if s := row.Score(); s < 0 || s > 1 {
			t.Errorf("row %s score = %f", row.Operator, s)
		}
	}
	if sumRows != table.Total.Mutants {
		t.Errorf("row sum %d != total %d", sumRows, table.Total.Mutants)
	}
	var sb strings.Builder
	if err := table.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Results obtained for the Account class", "#mutants", "#killed", "#equivalent", "Score", "Withdraw"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestOperatorRowScoreEdgeCases(t *testing.T) {
	if s := (OperatorRow{}).Score(); s != 1 {
		t.Errorf("empty row score = %f", s)
	}
	r := OperatorRow{Mutants: 4, Killed: 3, Equivalent: 1}
	if s := r.Score(); s != 1 {
		t.Errorf("3/(4-1) score = %f, want 1", s)
	}
	r2 := OperatorRow{Mutants: 4, Killed: 2}
	if s := r2.Score(); s != 0.5 {
		t.Errorf("2/4 score = %f", s)
	}
}

func TestKillReasonString(t *testing.T) {
	tests := []struct {
		k    KillReason
		want string
	}{
		{KillCrash, "crash"},
		{KillAssertion, "assertion"},
		{KillOutputDiff, "output-diff"},
		{KillReason(8), "reason(8)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestMutantResultEquivalent(t *testing.T) {
	if (MutantResult{Killed: true, Reached: true}).Equivalent() {
		t.Error("killed mutant cannot be equivalent")
	}
	if (MutantResult{Reached: false, Infected: false}).Equivalent() {
		t.Error("unreached mutant is unexercised, not equivalent")
	}
	if !(MutantResult{Reached: true, Infected: false}).Equivalent() {
		t.Error("reached-but-never-infecting mutant is an equivalence candidate")
	}
	if (MutantResult{Reached: true, Infected: true}).Equivalent() {
		t.Error("infecting survivor is not equivalent")
	}
}

func TestAnalysisKillReasonsOnObList(t *testing.T) {
	// ObList mutants exercise all three kill criteria under its own suite.
	eng := mutation.NewEngine()
	eng.MustRegisterSites(oblist.Sites()...)
	suite, err := driver.Generate(oblist.Spec(), driver.Options{
		Seed: 42, ExpandAlternatives: true, MaxAlternatives: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := &Analysis{Engine: eng, Factory: oblist.NewFactoryWithEngine(eng), Suite: suite}
	res, err := a.Run(eng.Enumerate(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	table := res.Tabulate()
	if table.KillsByReason[KillAssertion] == 0 {
		t.Error("expected some assertion kills (invariant catches count corruption)")
	}
	if table.KillsByReason[KillOutputDiff] == 0 {
		t.Error("expected some output-diff kills")
	}
	if table.Total.Killed == 0 {
		t.Error("expected kills on the base suite")
	}
	score := table.Total.Score()
	if score < 0.7 {
		t.Errorf("own-suite mutation score = %.1f%%, suspiciously low", score*100)
	}
}

func TestAnalysisFailsOnBrokenReference(t *testing.T) {
	a, _ := accountAnalysis(t)
	// A suite for a different component cannot run at all.
	bad := &driver.Suite{Component: "Account", Cases: []driver.TestCase{{
		ID:    "TC0",
		Calls: []driver.Call{{MethodID: "zz", Method: "NoSuchCtor"}},
	}}}
	a.Suite = bad
	if _, err := a.Run(nil); err == nil {
		t.Error("reference run with harness errors must fail the analysis")
	}
	_ = testexec.Options{}
}

func TestParallelMatchesSequential(t *testing.T) {
	mkAnalysis := func(par int) (*Analysis, []mutation.Mutant) {
		eng := mutation.NewEngine()
		eng.MustRegisterSites(account.Sites()...)
		suite, err := driver.Generate(account.Spec(), driver.Options{
			Seed: 3, ExpandAlternatives: true, MaxAlternatives: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := &Analysis{
			Engine:      eng,
			Factory:     account.NewFactoryWithEngine(eng),
			Suite:       suite,
			Parallelism: par,
			NewFactory: func(e *mutation.Engine) component.Factory {
				return account.NewFactoryWithEngine(e)
			},
		}
		return a, eng.Enumerate(nil, nil)
	}
	seqA, mutants := mkAnalysis(1)
	seq, err := seqA.Run(mutants)
	if err != nil {
		t.Fatal(err)
	}
	parA, _ := mkAnalysis(4)
	par, err := parA.Run(mutants)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Mutants) != len(par.Mutants) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Mutants), len(par.Mutants))
	}
	for i := range seq.Mutants {
		s, p := seq.Mutants[i], par.Mutants[i]
		if s.Mutant.ID != p.Mutant.ID || s.Killed != p.Killed || s.Reason != p.Reason ||
			s.Reached != p.Reached || s.Infected != p.Infected {
			t.Errorf("mutant %d verdict differs: seq=%+v par=%+v", i, s, p)
		}
	}
	st, pt := seq.Tabulate(), par.Tabulate()
	if st.Total != pt.Total {
		t.Errorf("table totals differ: %+v vs %+v", st.Total, pt.Total)
	}
}

func TestParallelRequiresNewFactory(t *testing.T) {
	a, mutants := accountAnalysis(t)
	a.Parallelism = 4
	if _, err := a.Run(mutants); err == nil || !strings.Contains(err.Error(), "NewFactory") {
		t.Errorf("parallel run without NewFactory: err = %v, want a NewFactory error", err)
	}
}

func TestParallelWorkerError(t *testing.T) {
	// Mutants whose site no engine registered fail to activate on every
	// worker; the error must surface and the run must not deadlock. Every
	// mutant fails, so the error is the first mutant's at any worker count,
	// as in a serial run.
	for _, workers := range []int{2, 8} {
		a, mutants := accountAnalysis(t)
		a.Parallelism = workers
		a.NewFactory = func(e *mutation.Engine) component.Factory {
			return account.NewFactoryWithEngine(e)
		}
		for i := range mutants {
			mutants[i].Site = "no-such-site" // Activate will fail
		}
		_, err := a.Run(mutants)
		if err == nil {
			t.Errorf("parallelism %d: worker activation failure should surface", workers)
		} else if !strings.Contains(err.Error(), "mutant "+mutants[0].ID+" ") {
			t.Errorf("parallelism %d: err = %v, want the error of the first mutant %s", workers, err, mutants[0].ID)
		}
	}
}
