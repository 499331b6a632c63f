package obs

import (
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusCountersAndLabels(t *testing.T) {
	m := NewMetrics()
	m.Inc("case.outcome.pass", 3)
	m.Inc("case.outcome.assertion-violation", 1)
	m.Inc("mutant.kill.crash", 2)
	m.Inc("job.outcome.done", 4)
	m.Inc("job.outcome.quarantined", 1)
	m.Inc("isolation.spawns", 5)
	snap := m.Snapshot()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE concat_case_outcome_total counter",
		`concat_case_outcome_total{outcome="pass"} 3`,
		`concat_case_outcome_total{outcome="assertion-violation"} 1`,
		`concat_mutant_kills_total{reason="crash"} 2`,
		`concat_job_outcome_total{state="done"} 4`,
		`concat_job_outcome_total{state="quarantined"} 1`,
		"concat_isolation_spawns_total 5",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	// One TYPE header per family, even with several labelled series.
	if got := strings.Count(out, "# TYPE concat_case_outcome_total"); got != 1 {
		t.Errorf("TYPE header for outcome family appears %d times", got)
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	m := NewMetrics()
	m.Observe("mutant.kill-latency.IndVarBitNeg", "m1", 50*time.Microsecond)
	m.Observe("mutant.kill-latency.IndVarBitNeg", "m2", 500*time.Microsecond)
	m.Observe("mutant.kill-latency.IndVarBitNeg", "m3", 2*time.Second)
	snap := m.Snapshot()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		"# TYPE concat_mutant_kill_latency_seconds histogram",
		`concat_mutant_kill_latency_seconds_bucket{operator="IndVarBitNeg",le="0.0001"} 1`,
		`concat_mutant_kill_latency_seconds_bucket{operator="IndVarBitNeg",le="0.001"} 2`,
		`concat_mutant_kill_latency_seconds_bucket{operator="IndVarBitNeg",le="100"} 3`,
		`concat_mutant_kill_latency_seconds_bucket{operator="IndVarBitNeg",le="+Inf"} 3`,
		`concat_mutant_kill_latency_seconds_count{operator="IndVarBitNeg"} 3`,
	}
	for _, line := range wantLines {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	// _sum is in seconds: 0.00005 + 0.0005 + 2 = 2.00055.
	if !strings.Contains(out, `concat_mutant_kill_latency_seconds_sum{operator="IndVarBitNeg"} 2.00055`) {
		t.Errorf("sum not converted to seconds:\n%s", out)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() string {
		m := NewMetrics()
		m.Inc("case.outcome.pass", 1)
		m.Inc("mutant.kill.crash", 1)
		m.Inc("store.hits", 7)
		m.Observe("suite.duration", "s", time.Millisecond)
		snap := m.Snapshot()
		var b strings.Builder
		if err := snap.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("identical snapshots rendered differently:\n%s\nvs\n%s", a, b)
	}
}

func TestWritePrometheusEmptySnapshot(t *testing.T) {
	var b strings.Builder
	snap := NewMetrics().Snapshot()
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty snapshot rendered %q", b.String())
	}
}

func TestPromSanitize(t *testing.T) {
	if got := promSanitize("suite.duration-us/total"); got != "suite_duration_us_total" {
		t.Errorf("promSanitize = %q", got)
	}
}

func TestWritePrometheusGauges(t *testing.T) {
	snap := NewMetrics().Snapshot()
	snap.Gauges = map[string]float64{
		"queue.depth":              3,
		"queue.oldest_age_seconds": 0.25,
		Labeled("build_info", "version", "1.0", "goversion", "go1.22"): 1,
		Labeled("jobs", "state", "done"):                               2,
		Labeled("jobs", "state", "queued"):                             0,
	}
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE concat_queue_depth gauge",
		"concat_queue_depth 3",
		"concat_queue_oldest_age_seconds 0.25",
		`concat_build_info{goversion="go1.22",version="1.0"} 1`,
		"# TYPE concat_jobs gauge",
		`concat_jobs{state="done"} 2`,
		`concat_jobs{state="queued"} 0`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	if !strings.Contains(out, "# HELP concat_queue_depth Jobs occupying admission slots.\n") {
		t.Errorf("gauge family lost its HELP text:\n%s", out)
	}
}

// Series of one family are contiguous under a single header even when
// their internal names sort apart, and families come out in sorted order.
func TestWritePrometheusGroupsFamilies(t *testing.T) {
	m := NewMetrics()
	m.Inc("a", 1)                    // concat_a_total
	m.Inc("a.x", 2)                  // concat_a_x_total, sorts between the two
	m.Inc(Labeled("a", "k", "v"), 3) // concat_a_total{k="v"}
	m.Observe("zz", "", time.Millisecond)
	snap := m.Snapshot()
	snap.Gauges = map[string]float64{"mid": 1}
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	want := []string{"concat_a_total", "concat_a_x_total", "concat_mid", "concat_zz_seconds"}
	if strings.Join(families, " ") != strings.Join(want, " ") {
		t.Errorf("families = %v, want %v:\n%s", families, want, b.String())
	}
	if !strings.Contains(b.String(), "concat_a_total 1\nconcat_a_total{k=\"v\"} 3\n") {
		t.Errorf("family series not contiguous:\n%s", b.String())
	}
}

func TestSnapshotJSONOmitsEmptyGauges(t *testing.T) {
	var b strings.Builder
	if err := NewMetrics().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "gauges") {
		t.Errorf("snapshot without gauges encodes a gauges key:\n%s", b.String())
	}
}
