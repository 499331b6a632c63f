package core

import (
	"encoding/json"
	"testing"

	"concat/internal/analysis"
	"concat/internal/components/oblist"
	"concat/internal/components/sortlist"
	"concat/internal/driver"
	"concat/internal/testexec"
)

// mutantContext is the isolation context of the target's first experiment
// mutant.
func mutantContext(tb testing.TB, name string) json.RawMessage {
	tb.Helper()
	t, err := LookupTarget(name)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := t.engine()
	if err != nil {
		tb.Fatal(err)
	}
	m := eng.Enumerate(nil, t.ExperimentMethods)[0]
	raw, err := json.Marshal(analysis.IsolationContext{Mutant: &m})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// Cases resolved with one context share its decoding, never an engine: a
// case's reach/infection flags are its own.
func TestCaseResolverFlagsPerCase(t *testing.T) {
	resolve := CaseResolver()
	ctx := mutantContext(t, oblist.Name)
	ran, err := resolve(oblist.Name, ctx)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := resolve(oblist.Name, ctx)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := driver.Generate(ran.Factory.Spec(), driver.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testexec.Run(suite, ran.Factory, testexec.Options{Providers: ran.Providers}); err != nil {
		t.Fatal(err)
	}
	var got, want analysis.CaseFlags
	if err := json.Unmarshal(ran.Finish(), &got); err != nil || !got.Reached {
		t.Fatalf("flags of the resolution that ran the suite = %+v (%v), want reached", got, err)
	}
	if err := json.Unmarshal(idle.Finish(), &got); err != nil || got != want {
		t.Errorf("flags of a resolution that ran nothing = %+v (%v), want none", got, err)
	}
	// Another component and the original program resolve afresh.
	if _, err := resolve(sortlist.Name, mutantContext(t, sortlist.Name)); err != nil {
		t.Fatal(err)
	}
	plain, err := resolve(oblist.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Finish != nil || plain.Factory.Name() != oblist.Name {
		t.Errorf("unarmed resolution: factory %q, finish set %v", plain.Factory.Name(), plain.Finish != nil)
	}
	if _, err := resolve(oblist.Name, json.RawMessage(`{"mutant":`)); err == nil {
		t.Error("a malformed context resolved")
	}
}

// resolvedSink keeps the benchmarked resolutions live.
var resolvedSink testexec.Resolved

// BenchmarkCaseResolverSortableMutant is what a case server pays per case
// of a mutant batch: one SortableObList mutant resolution.
func BenchmarkCaseResolverSortableMutant(b *testing.B) {
	resolve := CaseResolver()
	ctx := mutantContext(b, sortlist.Name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if resolvedSink, err = resolve(sortlist.Name, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
