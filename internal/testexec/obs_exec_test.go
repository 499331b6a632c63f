package testexec

// Tests for the observability side channel at the executor level and for
// the two hardening fixes that ride with it: the always-armed isolation
// backstop and the indexed Report.Result lookup.

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"concat/internal/components/account"
	"concat/internal/obs"
)

func TestIsolationDeadlinePrecedence(t *testing.T) {
	tests := []struct {
		name string
		opts Options
		want time.Duration
	}{
		// With no CaseTimeout to derive from, a wedged child would hang the
		// campaign forever; the default backstop must apply.
		{"zero", Options{}, DefaultIsolationBackstop},
		{"derived from CaseTimeout", Options{CaseTimeout: 2 * time.Second}, 34 * time.Second},
		{"explicit wins", Options{IsolationBackstop: time.Second, CaseTimeout: 2 * time.Second}, time.Second},
		// 2*CaseTimeout+30s overflows here; a wrapped negative deadline
		// would report every isolated case as a backstop kill at once.
		{"huge CaseTimeout saturates", Options{CaseTimeout: 1300000 * time.Hour}, math.MaxInt64},
		{"largest CaseTimeout saturates", Options{CaseTimeout: math.MaxInt64}, math.MaxInt64},
		{"last unsaturated CaseTimeout", Options{CaseTimeout: (math.MaxInt64 - 30*time.Second) / 2}, math.MaxInt64 - 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := isolationDeadline(tt.opts); got != tt.want {
				t.Errorf("isolationDeadline = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestReportResultIndexedLookup(t *testing.T) {
	rep := &Report{Results: []CaseResult{
		{CaseID: "TC0", Detail: "first"},
		{CaseID: "TC1"},
		{CaseID: "TC0", Detail: "duplicate"},
	}}
	res, ok := rep.Result("TC1")
	if !ok || res.CaseID != "TC1" {
		t.Fatalf("Result(TC1) = %+v, %v", res, ok)
	}
	// First occurrence wins, matching the linear scan this replaced.
	res, ok = rep.Result("TC0")
	if !ok || res.Detail != "first" {
		t.Errorf("Result(TC0) = %+v, want the first occurrence", res)
	}
	if _, ok := rep.Result("absent"); ok {
		t.Error("Result(absent) reported a hit")
	}
	// The lookup index must not disturb the published order.
	want := []string{"TC0", "TC1", "TC0"}
	for i, r := range rep.Results {
		if r.CaseID != want[i] {
			t.Fatalf("Results order changed at %d: %s", i, r.CaseID)
		}
	}
}

// TestTraceSidechannelKeepsReportIdentical is the layer's core contract:
// a traced run's Report deep-equals an untraced run's, and the trace is
// schema-valid with one case span per executed case.
func TestTraceSidechannelKeepsReportIdentical(t *testing.T) {
	s := accountSuite(t)
	plain, err := Run(s, account.NewFactory(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewCollector()
	met := obs.NewMetrics()
	traced, err := Run(s, account.NewFactory(), Options{Seed: 42, Trace: tr, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Results, traced.Results) {
		t.Errorf("tracing changed the report:\n%+v\nvs\n%+v", plain.Results, traced.Results)
	}
	spans := tr.Spans()
	if err := obs.ValidateTrace(spans); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	caseSpans := map[string]bool{}
	var suiteSpans, callSpans int
	for _, sp := range spans {
		switch sp.Kind {
		case obs.KindSuite:
			suiteSpans++
		case obs.KindCase:
			caseSpans[sp.Name] = true
			if sp.Attrs["outcome"] == "" {
				t.Errorf("case span %s missing outcome attr", sp.Name)
			}
		case obs.KindCall:
			callSpans++
			if sp.Attrs["status"] == "" {
				t.Errorf("call span %s missing status attr", sp.Name)
			}
		}
	}
	if suiteSpans != 1 {
		t.Errorf("suite spans = %d, want 1", suiteSpans)
	}
	if callSpans == 0 {
		t.Error("no call spans recorded")
	}
	for _, tc := range s.Cases {
		if !caseSpans[tc.ID] {
			t.Errorf("case %s has no span", tc.ID)
		}
	}
	snap := met.Snapshot()
	if got := snap.Counters["case.total"]; got != int64(len(s.Cases)) {
		t.Errorf("case.total = %d, want %d", got, len(s.Cases))
	}
	if snap.Durations["case.duration"].Count != int64(len(s.Cases)) {
		t.Errorf("case.duration count = %d", snap.Durations["case.duration"].Count)
	}
}

// TestTraceStructureIdenticalSerialAndParallel: span IDs, emission order
// and timings may differ between worker counts, but the normalized span
// forest may not.
func TestTraceStructureIdenticalSerialAndParallel(t *testing.T) {
	s := accountSuite(t)
	run := func(parallelism int) []obs.Span {
		tr := obs.NewCollector()
		if _, err := Run(s, account.NewFactory(), Options{Seed: 42, Trace: tr, Parallelism: parallelism}); err != nil {
			t.Fatal(err)
		}
		return tr.Spans()
	}
	serial := obs.Tree(run(1))
	parallel := obs.Tree(run(runtime.GOMAXPROCS(0)))
	if !obs.EqualForests(serial, parallel) {
		t.Errorf("span forests differ between serial and parallel runs:\n%s\nvs\n%s",
			obs.RenderForest(serial), obs.RenderForest(parallel))
	}
}

// TestCaseFlagsExtraUnchangedByTracing guards the Extra envelope: a traced
// isolated case's Extra payload must be byte-identical to the untraced
// wire form once the parent strips the span envelope. Exercised here at
// the wire-format level (the full subprocess path is covered by the
// hostile and analysis isolation tests).
func TestCaseFlagsExtraUnchangedByTracing(t *testing.T) {
	payload := json.RawMessage(`{"reached":true,"infected":false}`)
	tr := obs.NewCollector()
	sp := tr.Start(0, obs.KindCall, "Poke")
	sp.End()
	wrapped := obs.WrapExtra(payload, tr.Spans())
	got, spans := obs.UnwrapExtra(wrapped)
	if string(got) != string(payload) {
		t.Errorf("payload bytes changed: %s -> %s", payload, got)
	}
	if len(spans) != 1 {
		t.Errorf("spans lost in round trip: %d", len(spans))
	}
}
