package history

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"concat/internal/components/oblist"
	"concat/internal/components/sortlist"
	"concat/internal/driver"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

func parentSuite(t *testing.T) *driver.Suite {
	t.Helper()
	s, err := driver.Generate(oblist.Spec(), driver.Options{
		Seed: 42, ExpandAlternatives: true, MaxAlternatives: 4,
	})
	if err != nil {
		t.Fatalf("Generate parent: %v", err)
	}
	return s
}

func deriveLists(t *testing.T) *DerivedSuite {
	t.Helper()
	opts := driver.Options{Seed: 42, ExpandAlternatives: true, MaxAlternatives: 4}
	d, err := Derive(oblist.Spec(), sortlist.Spec(), parentSuite(t), opts)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return d
}

func TestBuildHistory(t *testing.T) {
	s := parentSuite(t)
	h := Build(s)
	if h.Component != oblist.Name || len(h.Entries) != len(s.Cases) {
		t.Fatalf("history = %+v", h)
	}
	for i, e := range h.Entries {
		if e.Origin != "new" {
			t.Fatalf("entry %d origin = %q", i, e.Origin)
		}
		if e.Transaction == "" || len(e.Methods) == 0 {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
	}
	byTr := h.ByTransaction()
	if len(byTr) == 0 {
		t.Fatal("ByTransaction empty")
	}
	total := 0
	for _, es := range byTr {
		total += len(es)
	}
	if total != len(h.Entries) {
		t.Errorf("grouping lost entries: %d vs %d", total, len(h.Entries))
	}
}

func TestHistorySaveLoad(t *testing.T) {
	h := Build(parentSuite(t))
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Component != h.Component || len(back.Entries) != len(h.Entries) {
		t.Error("round trip lost data")
	}
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("loading garbage should fail")
	}
}

func TestDeriveProducesAllThreeClasses(t *testing.T) {
	d := deriveLists(t)
	skip, reuse, regen := d.Plan.Counts()
	if skip == 0 || reuse == 0 || regen == 0 {
		t.Fatalf("plan counts = skip=%d reuse=%d regen=%d; all three classes expected",
			skip, reuse, regen)
	}
	if d.NumNew == 0 || d.NumReused == 0 || d.NumSkipped == 0 {
		t.Fatalf("suite provenance = new=%d reused=%d skipped=%d",
			d.NumNew, d.NumReused, d.NumSkipped)
	}
	if len(d.Suite.Cases) != d.NumNew+d.NumReused {
		t.Errorf("suite has %d cases, provenance says %d",
			len(d.Suite.Cases), d.NumNew+d.NumReused)
	}
	if d.Suite.Component != sortlist.Name {
		t.Errorf("derived suite component = %q", d.Suite.Component)
	}
}

func TestDeriveDecisionsFollowTheRule(t *testing.T) {
	d := deriveLists(t)
	spec := sortlist.Spec()
	delta := d.Plan.Delta
	byTr := map[string][]driver.TestCase{}
	for _, tc := range d.Suite.Cases {
		byTr[tc.Transaction] = append(byTr[tc.Transaction], tc)
	}
	for _, dec := range d.Plan.Decisions {
		switch dec.Class {
		case ClassSkip:
			if len(byTr[dec.Transaction]) != 0 {
				t.Errorf("skipped transaction %s has cases in the suite", dec.Transaction)
			}
		case ClassRegenerate:
			// Must contain at least one new method.
			found := false
			for _, tc := range byTr[dec.Transaction] {
				for _, m := range tc.Methods() {
					if delta.ImpactedReason(m) == tspec.ReasonAdded {
						if mm, ok := spec.MethodByName(m); ok &&
							mm.Category != tspec.CatConstructor && mm.Category != tspec.CatDestructor {
							found = true
						}
					}
				}
			}
			if !found {
				t.Errorf("regenerated transaction %s has no new non-lifecycle method", dec.Transaction)
			}
		case ClassReuse:
			// Reused cases must call the subclass's constructors, not the
			// parent's (lifecycle remapping).
			for _, tc := range byTr[dec.Transaction] {
				first := tc.Calls[0]
				m, ok := spec.MethodByName(first.Method)
				if !ok || m.Category != tspec.CatConstructor {
					t.Errorf("reused case %s starts with %q, not a subclass constructor",
						tc.ID, first.Method)
				}
			}
		}
	}
}

func TestDeriveSuiteIsRunnable(t *testing.T) {
	d := deriveLists(t)
	rep, err := testexec.Run(d.Suite, sortlist.NewFactory(), testexec.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.AllPassed() {
		fails := rep.Failures()
		max := 3
		if len(fails) < max {
			max = len(fails)
		}
		t.Fatalf("derived suite failed %d cases; first: %+v", len(fails), fails[:max])
	}
}

func TestDeriveHistoryOrigins(t *testing.T) {
	d := deriveLists(t)
	if d.History == nil {
		t.Fatal("derived history missing")
	}
	if len(d.History.Entries) != len(d.Suite.Cases) {
		t.Fatalf("history entries = %d, cases = %d", len(d.History.Entries), len(d.Suite.Cases))
	}
	newN, reusedN := 0, 0
	for _, e := range d.History.Entries {
		switch e.Origin {
		case "new":
			newN++
		case "reused":
			reusedN++
		default:
			t.Fatalf("entry origin = %q", e.Origin)
		}
	}
	if newN != d.NumNew || reusedN != d.NumReused {
		t.Errorf("history origins = %d/%d, want %d/%d", newN, reusedN, d.NumNew, d.NumReused)
	}
	if d.History.Superclass != oblist.Name {
		t.Errorf("history superclass = %q", d.History.Superclass)
	}
}

func TestDeriveValidation(t *testing.T) {
	wrongParent := sortlist.Spec().Clone()
	wrongParent.Class.Superclass = "SomeoneElse"
	cases := []struct {
		name          string
		parent, child *tspec.Spec
		suite         *driver.Suite
		want          string
	}{
		{"nil parent suite", oblist.Spec(), sortlist.Spec(), nil, "requires the parent suite"},
		{"reversed hierarchy", sortlist.Spec(), oblist.Spec(), parentSuite(t), "does not extend"},
		{"superclass mismatch", oblist.Spec(), wrongParent, parentSuite(t), `superclass is "SomeoneElse"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Derive(c.parent, c.child, c.suite, driver.Options{Seed: 1})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Derive = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := deriveLists(t)
	b := deriveLists(t)
	if len(a.Suite.Cases) != len(b.Suite.Cases) || a.NumNew != b.NumNew || a.NumReused != b.NumReused {
		t.Fatalf("derivation not deterministic: %d/%d/%d vs %d/%d/%d",
			len(a.Suite.Cases), a.NumNew, a.NumReused,
			len(b.Suite.Cases), b.NumNew, b.NumReused)
	}
	for i := range a.Suite.Cases {
		if a.Suite.Cases[i].Transaction != b.Suite.Cases[i].Transaction {
			t.Fatalf("case %d transaction differs", i)
		}
	}
}

func TestTransactionClassString(t *testing.T) {
	tests := []struct {
		c    TransactionClass
		want string
	}{
		{ClassSkip, "skip"},
		{ClassReuse, "reuse"},
		{ClassRegenerate, "regenerate"},
		{TransactionClass(9), "class(9)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRemapLifecycle(t *testing.T) {
	parent := oblist.Spec()
	child := sortlist.Spec()
	tc := driver.TestCase{
		ID: "TC0",
		Calls: []driver.Call{
			{MethodID: "m1", Method: "ObList"},
			{MethodID: "m4", Method: "AddHead"},
			{MethodID: "m3", Method: "~ObList"},
		},
	}
	out, err := remapLifecycle(parent, child, tc)
	if err != nil {
		t.Fatalf("remapLifecycle: %v", err)
	}
	if out.Calls[0].Method != "SortableObList" {
		t.Errorf("ctor remapped to %q", out.Calls[0].Method)
	}
	if out.Calls[1].Method != "AddHead" {
		t.Errorf("ordinary call changed: %q", out.Calls[1].Method)
	}
	if out.Calls[2].Method != "~SortableObList" {
		t.Errorf("dtor remapped to %q", out.Calls[2].Method)
	}
	// The original must be untouched.
	if tc.Calls[0].Method != "ObList" {
		t.Error("remapLifecycle mutated its input")
	}
}

func TestRemapLifecycleNoMatch(t *testing.T) {
	parent := oblist.Spec()
	// A child spec with no constructors matching the parent's sized ctor.
	child, err := tspec.NewBuilder("Odd").
		Extends(oblist.Name).
		Method("c1", "Odd", "", tspec.CatConstructor).
		Method("d1", "~Odd", "", tspec.CatDestructor).
		Node("n1", true, "c1").
		Node("n2", false, "d1").
		Edge("n1", "n2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tc := driver.TestCase{
		Calls: []driver.Call{{MethodID: "m2", Method: "ObListSized"}},
	}
	if _, err := remapLifecycle(parent, child, tc); err == nil {
		t.Error("unmatchable ctor should fail")
	}
}

func TestDerivePartitionProperty(t *testing.T) {
	// Invariant: the plan partitions the child's transactions — every
	// transaction gets exactly one decision, skip-class transactions have
	// no cases in the suite, and every suite case belongs to a reuse or
	// regenerate transaction.
	d := deriveLists(t)
	decided := map[string]TransactionClass{}
	for _, dec := range d.Plan.Decisions {
		if _, dup := decided[dec.Transaction]; dup {
			t.Fatalf("transaction %s decided twice", dec.Transaction)
		}
		decided[dec.Transaction] = dec.Class
	}
	for _, tc := range d.Suite.Cases {
		cls, ok := decided[tc.Transaction]
		if !ok {
			t.Fatalf("suite case %s has undecided transaction %s", tc.ID, tc.Transaction)
		}
		if cls == ClassSkip {
			t.Fatalf("suite case %s belongs to a skipped transaction", tc.ID)
		}
	}
	// Case IDs are unique and sequential.
	seen := map[string]bool{}
	for i, tc := range d.Suite.Cases {
		if seen[tc.ID] {
			t.Fatalf("duplicate case ID %s", tc.ID)
		}
		seen[tc.ID] = true
		if tc.ID != fmt.Sprintf("TC%d", i) {
			t.Fatalf("case %d has ID %s", i, tc.ID)
		}
	}
}

// abstractListSpec is an abstract container specification covering the
// method subset both list components implement.
func abstractListSpec(t *testing.T) *tspec.Spec {
	t.Helper()
	elem := tspec.RangeInt(0, 999)
	s, err := tspec.NewBuilder("AbstractList").
		Abstract().
		Attribute("count", tspec.RangeInt(0, 1_000_000)).
		Method("a1", "AbstractList", "", tspec.CatConstructor).
		Method("a2", "~AbstractList", "", tspec.CatDestructor).
		Method("a3", "AddHead", "", tspec.CatUpdate).
		Param("v", elem).
		Method("a4", "AddTail", "", tspec.CatUpdate).
		Param("v", elem).
		Method("a5", "RemoveHead", "int", tspec.CatUpdate).
		Method("a6", "GetCount", "int", tspec.CatAccess).
		Method("a7", "IsEmpty", "bool", tspec.CatAccess).
		Node("n1", true, "a1").
		Node("n2", false, "a3", "a4").
		Node("n3", false, "a5").
		Node("n4", false, "a6", "a7").
		Node("n5", false, "a2").
		Edge("n1", "n2").
		Edge("n1", "n5").
		Edge("n2", "n2").
		Edge("n2", "n3").
		Edge("n2", "n4").
		Edge("n2", "n5").
		Edge("n3", "n4").
		Edge("n3", "n5").
		Edge("n4", "n5").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdaptSuiteFromAbstractClass(t *testing.T) {
	abs := abstractListSpec(t)
	suite, err := driver.Generate(abs, driver.Options{
		Seed: 42, ExpandAlternatives: true, MaxAlternatives: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Cases) == 0 {
		t.Fatal("no abstract cases generated")
	}
	// The same abstract suite instantiates against both concrete classes.
	targets := []struct {
		spec *tspec.Spec
		run  func(*driver.Suite) (*testexec.Report, error)
	}{
		{oblist.Spec(), func(s *driver.Suite) (*testexec.Report, error) {
			return testexec.Run(s, oblist.NewFactory(), testexec.Options{})
		}},
		{sortlist.Spec(), func(s *driver.Suite) (*testexec.Report, error) {
			return testexec.Run(s, sortlist.NewFactory(), testexec.Options{})
		}},
	}
	for _, target := range targets {
		adapted, err := AdaptSuite(abs, target.spec, suite)
		if err != nil {
			t.Fatalf("AdaptSuite(%s): %v", target.spec.Class.Name, err)
		}
		if adapted.Component != target.spec.Class.Name {
			t.Errorf("adapted component = %q", adapted.Component)
		}
		rep, err := target.run(adapted)
		if err != nil {
			t.Fatalf("running adapted suite on %s: %v", target.spec.Class.Name, err)
		}
		if !rep.AllPassed() {
			t.Fatalf("abstract suite fails on %s: %+v", target.spec.Class.Name, rep.Failures()[:1])
		}
	}
}

func TestAdaptSuiteErrors(t *testing.T) {
	abs := abstractListSpec(t)
	suite, err := driver.Generate(abs, driver.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong abstract spec for the suite.
	if _, err := AdaptSuite(oblist.Spec(), sortlist.Spec(), suite); err == nil {
		t.Error("mismatched abstract spec should fail")
	}
	// A concrete class that lacks one of the abstract methods.
	incomplete, err := tspec.NewBuilder("Partial").
		Method("p1", "Partial", "", tspec.CatConstructor).
		Method("p2", "~Partial", "", tspec.CatDestructor).
		Method("p3", "AddHead", "", tspec.CatUpdate).
		Param("v", tspec.RangeInt(0, 999)).
		Node("n1", true, "p1").
		Node("n2", false, "p3").
		Node("n3", false, "p2").
		Edge("n1", "n2").
		Edge("n2", "n3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AdaptSuite(abs, incomplete, suite); err == nil {
		t.Error("incomplete concrete class should fail adaptation")
	}
}
