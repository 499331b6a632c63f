package impact_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

func runner(t *testing.T, name string, st store.Backend) *impact.Runner {
	t.Helper()
	target, err := core.LookupTarget(name)
	if err != nil {
		t.Fatalf("LookupTarget(%s): %v", name, err)
	}
	comp := target.New(nil)
	return &impact.Runner{
		Factory:   comp.Factory,
		Providers: comp.Providers,
		Gen:       driver.Options{Seed: 42},
		Store:     st,
	}
}

// perturbDomain clones the spec and degenerates the first range-typed
// parameter domain it finds, returning the owning method's name.
func perturbDomain(t *testing.T, s *tspec.Spec) (*tspec.Spec, string) {
	t.Helper()
	cp := s.Clone()
	for i, m := range cp.Methods {
		for j, p := range m.Params {
			if p.Domain.Kind == tspec.DomRange && p.Domain.Lo != p.Domain.Hi {
				cp.Methods[i].Params[j].Domain.Hi = p.Domain.Lo
				return cp, m.Name
			}
		}
	}
	t.Fatalf("spec %s has no range parameter to perturb", s.Class.Name)
	return nil, ""
}

// perturbReturn clones the spec and changes one non-constructor method's
// return type — a spec edit that leaves generated cases byte-identical.
func perturbReturn(t *testing.T, s *tspec.Spec) (*tspec.Spec, string) {
	t.Helper()
	cp := s.Clone()
	for i, m := range cp.Methods {
		if m.Category != tspec.CatConstructor && m.Category != tspec.CatDestructor {
			cp.Methods[i].Return = m.Return + "X"
			return cp, m.Name
		}
	}
	t.Fatalf("spec %s has no perturbable method", s.Class.Name)
	return nil, ""
}

// finalBytes canonicalizes a suite report for comparison.
func finalBytes(t *testing.T, rep *testexec.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	return string(b)
}

// coldRun executes the suite from scratch on a fresh factory.
func coldRun(t *testing.T, name string, suite *driver.Suite) *testexec.Report {
	t.Helper()
	target, err := core.LookupTarget(name)
	if err != nil {
		t.Fatal(err)
	}
	comp := target.New(nil)
	rep, err := comp.RunSuite(suite, testexec.Options{})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	return rep
}

// coverageBytes is the cold-path coverage artifact for comparison.
func coverageBytes(t *testing.T, name string, suite *driver.Suite, rep *testexec.Report) string {
	t.Helper()
	target, err := core.LookupTarget(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := target.New(nil).Spec().TFM()
	if err != nil {
		t.Fatal(err)
	}
	art, err := cover.FromRun(g, suite, rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// An identical-spec diff keeps every case. The first run executes everything
// (cold store), the second replays 100% warm — and both match a cold run.
func TestIdenticalSpecFullWarmReplay(t *testing.T) {
	st := store.NewMem()
	r := runner(t, "Account", st)
	spec := r.Factory.Spec()

	res1, err := r.Run(spec, spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	n := len(res1.Suite.Cases)
	if res1.Report.Kept != n || res1.Report.Rerun != 0 || res1.Report.Regenerated != 0 {
		t.Fatalf("partition = %d/%d/%d, want %d/0/0",
			res1.Report.Kept, res1.Report.Rerun, res1.Report.Regenerated, n)
	}
	if res1.Report.CacheHits != 0 || res1.Report.CacheMisses != n {
		t.Fatalf("cold accounting = %d hits/%d misses, want 0/%d",
			res1.Report.CacheHits, res1.Report.CacheMisses, n)
	}
	if !res1.Report.Delta.Empty() {
		t.Fatalf("identical specs produced a delta: %+v", res1.Report.Delta)
	}

	res2, err := r.Run(spec, spec)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if res2.Report.CacheHits != n || res2.Report.CacheMisses != 0 {
		t.Fatalf("warm accounting = %d hits/%d misses, want %d/0",
			res2.Report.CacheHits, res2.Report.CacheMisses, n)
	}

	cold := coldRun(t, "Account", res2.Suite)
	want := finalBytes(t, cold)
	if got := finalBytes(t, res1.Final); got != want {
		t.Error("cold-store impact run diverged from cold run")
	}
	if got := finalBytes(t, res2.Final); got != want {
		t.Error("warm impact run diverged from cold run")
	}
}

// A domain change invalidates exactly the cases exercising the method; the
// rest replay warm on a primed store, and the final report still matches a
// cold full run on the new spec.
func TestDomainChangePartialRerun(t *testing.T) {
	st := store.NewMem()
	r := runner(t, "Account", st)
	spec := r.Factory.Spec()
	old, method := perturbDomain(t, spec)

	// Prime the store with an identical-spec run.
	if _, err := r.Run(spec, spec); err != nil {
		t.Fatalf("priming run: %v", err)
	}

	res, err := r.Run(old, spec)
	if err != nil {
		t.Fatalf("impact run: %v", err)
	}
	if got := res.Report.Delta.ImpactedReason(method); got != tspec.ReasonDomainChanged {
		t.Fatalf("delta reason for %s = %q, want %q", method, got, tspec.ReasonDomainChanged)
	}
	touching := 0
	for i, tc := range res.Suite.Cases {
		touches := false
		for _, m := range tc.Methods() {
			if m == method {
				touches = true
			}
		}
		dec := res.Report.Cases[i].Decision
		if touches {
			touching++
			if dec == impact.DecisionKept {
				t.Errorf("case %s exercises %s but was kept", tc.ID, method)
			}
		} else if dec != impact.DecisionKept {
			t.Errorf("case %s does not exercise %s but was %s", tc.ID, method, dec)
		}
	}
	if touching == 0 {
		t.Fatalf("no case exercises %s; perturbation proves nothing", method)
	}
	if res.Report.CacheHits != res.Report.Kept {
		t.Errorf("hits = %d, want every kept case warm (%d)", res.Report.CacheHits, res.Report.Kept)
	}
	if res.Report.CacheMisses != res.Report.Rerun+res.Report.Regenerated {
		t.Errorf("misses = %d, want rerun+regenerated = %d",
			res.Report.CacheMisses, res.Report.Rerun+res.Report.Regenerated)
	}

	cold := coldRun(t, "Account", res.Suite)
	if finalBytes(t, res.Final) != finalBytes(t, cold) {
		t.Error("impact-driven report diverged from cold run on the new spec")
	}
	coldArt := coverageBytes(t, "Account", res.Suite, cold)
	gotArt, err := res.Coverage.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotArt) != coldArt {
		t.Error("impact-driven coverage artifact diverged from cold run's")
	}
}

// A redefinition-style edit (changed return type) leaves every case
// byte-identical but still forces re-execution of the method's cases: warm
// entries exist, yet rerun cases must not be served from the store.
func TestRerunBypassesWarmStore(t *testing.T) {
	st := store.NewMem()
	r := runner(t, "Account", st)
	spec := r.Factory.Spec()
	old, method := perturbReturn(t, spec)

	if _, err := r.Run(spec, spec); err != nil {
		t.Fatalf("priming run: %v", err)
	}
	res, err := r.Run(old, spec)
	if err != nil {
		t.Fatalf("impact run: %v", err)
	}
	if res.Report.Regenerated != 0 {
		t.Errorf("regenerated = %d, want 0 (cases are byte-identical)", res.Report.Regenerated)
	}
	if res.Report.Rerun == 0 {
		t.Fatalf("no reruns although %s changed", method)
	}
	if res.Report.CacheMisses != res.Report.Rerun {
		t.Errorf("misses = %d, want %d (every rerun executes despite warm entries)",
			res.Report.CacheMisses, res.Report.Rerun)
	}
	for i, c := range res.Report.Cases {
		if c.Decision == impact.DecisionRerun && c.Warm {
			t.Errorf("case %s served warm despite rerun decision", res.Report.Cases[i].CaseID)
		}
	}
}

// Parallel execution must not change a single byte of either artifact.
func TestParallelRunIdentical(t *testing.T) {
	spec := runner(t, "Account", store.NewMem()).Factory.Spec()
	old, _ := perturbDomain(t, spec)

	serial := runner(t, "Account", store.NewMem())
	serial.Parallelism = 1
	parallel := runner(t, "Account", store.NewMem())
	parallel.Parallelism = 4

	a, err := serial.Run(old, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Run(old, spec)
	if err != nil {
		t.Fatal(err)
	}
	if finalBytes(t, a.Final) != finalBytes(t, b.Final) {
		t.Error("parallel final report diverged from serial")
	}
	ea, _ := a.Report.Encode()
	eb, _ := b.Report.Encode()
	if string(ea) != string(eb) {
		t.Error("parallel impact artifact diverged from serial")
	}
}

// Exec.Parallelism has nothing to fan out (every case runs as its own
// suite), so Run rejects it and names the knob that does.
func TestExecParallelismRejected(t *testing.T) {
	r := runner(t, "Account", store.NewMem())
	r.Exec.Parallelism = 4
	spec := r.Factory.Spec()
	_, err := r.Run(spec, spec)
	if err == nil || !strings.Contains(err.Error(), "Runner.Parallelism") {
		t.Fatalf("Run with Exec.Parallelism = 4: err = %v, want a rejection naming Runner.Parallelism", err)
	}
}

// A disabled store degrades gracefully: everything executes, nothing warms.
func TestDisabledStoreExecutesEverything(t *testing.T) {
	r := runner(t, "Account", nil)
	spec := r.Factory.Spec()
	res, err := r.Run(spec, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CacheHits != 0 || res.Report.CacheMisses != len(res.Suite.Cases) {
		t.Fatalf("accounting = %d/%d, want 0/%d",
			res.Report.CacheHits, res.Report.CacheMisses, len(res.Suite.Cases))
	}
	cold := coldRun(t, "Account", res.Suite)
	if finalBytes(t, res.Final) != finalBytes(t, cold) {
		t.Error("storeless impact run diverged from cold run")
	}
}

// Mutant accounting partitions by impacted-method membership.
func TestMutantAccounting(t *testing.T) {
	r := runner(t, "Account", store.NewMem())
	spec := r.Factory.Spec()
	old, method := perturbReturn(t, spec)
	r.MutantMethods = []string{method, method, "Other", "Other", "Other"}
	res, err := r.Run(old, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MutantsInvalidated != 2 || res.Report.MutantsKept != 3 {
		t.Fatalf("mutants = %d invalidated/%d kept, want 2/3",
			res.Report.MutantsInvalidated, res.Report.MutantsKept)
	}
}

// The artifact round-trips and renders.
func TestReportRoundTripAndRender(t *testing.T) {
	r := runner(t, "Account", store.NewMem())
	spec := r.Factory.Spec()
	old, _ := perturbDomain(t, spec)
	res, err := r.Run(old, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := impact.Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	raw2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Error("artifact did not round-trip byte-identically")
	}
	var sb jsonBuffer
	if err := res.Report.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if len(sb) == 0 {
		t.Error("Render produced no output")
	}
	if _, err := impact.Decode([]byte("{\"version\":99}")); err == nil {
		t.Error("Decode accepted an unsupported version")
	}
}

type jsonBuffer []byte

func (b *jsonBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// clearEmpty sets every empty slice of r to nil: omitempty encodes both
// alike, so a round trip cannot tell them apart.
func clearEmpty(r *impact.Report) {
	if len(r.Delta.Impacted) == 0 {
		r.Delta.Impacted = nil
	}
	if len(r.Delta.Removed) == 0 {
		r.Delta.Removed = nil
	}
	if len(r.Transactions) == 0 {
		r.Transactions = nil
	}
	if len(r.Cases) == 0 {
		r.Cases = nil
	}
	for i := range r.Transactions {
		if len(r.Transactions[i].Reasons) == 0 {
			r.Transactions[i].Reasons = nil
		}
	}
}

// FuzzImpactDecode feeds arbitrary bytes to impact.Decode: it never
// panics, and a report it accepts encodes, then decodes, to an equal report.
func FuzzImpactDecode(f *testing.F) {
	seed := &impact.Report{
		Version: impact.Version, Component: "ObList", Seed: 42,
		OldSpecHash: "a", NewSpecHash: "b",
		Delta: tspec.SpecDelta{
			Impacted: []tspec.MethodDelta{{Method: "RemoveAt", Reason: tspec.ReasonDomainChanged}},
			Removed:  []string{"Gone"}, ModelChanged: true,
		},
		Kept: 1, Rerun: 1, CacheHits: 1, CacheMisses: 1,
		Transactions: []impact.TransactionImpact{{Transaction: "n1>n2", Kept: 1, Rerun: 1, Reasons: []string{"RemoveAt domain-changed"}}},
		Cases: []impact.CaseImpact{
			{CaseID: "TC0", Transaction: "n1>n2", Decision: impact.DecisionKept, Warm: true},
			{CaseID: "TC1", Transaction: "n1>n2", Decision: impact.DecisionRerun, Reason: "RemoveAt domain-changed"},
		},
	}
	raw, err := seed.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"version":1,"component":"A","cases":[],"delta":{"impacted":[]}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := impact.Decode(data)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		back, err := impact.Decode(enc)
		if err != nil {
			t.Fatalf("encoded report does not decode: %v\n%s", err, enc)
		}
		clearEmpty(r)
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip changed the report:\nbefore %+v\nafter  %+v", r, back)
		}
	})
}
