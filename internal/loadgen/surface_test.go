package loadgen

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"concat/internal/core"
	"concat/internal/obs"
	"concat/internal/serve"
	"concat/internal/store"
)

// alwaysPresent are the series /metrics carries from process start: the
// recovery, shard and impact counters, the verdict-store counters, the job
// state gauges and the service gauges.
var alwaysPresent = []string{
	"concat_journal_replayed_total",
	"concat_journal_corrupt_total",
	"concat_lease_reclaims_total",
	"concat_job_retries_total",
	"concat_jobs_quarantined_total",
	"concat_shard_leases_total",
	"concat_shard_reclaims_total",
	"concat_impact_kept_total",
	"concat_impact_rerun_total",
	"concat_impact_regenerated_total",
	"concat_store_hits_total",
	"concat_store_misses_total",
	"concat_store_quarantined_total",
	`concat_jobs{state="queued"}`,
	`concat_jobs{state="running"}`,
	`concat_jobs{state="done"}`,
	`concat_jobs{state="failed"}`,
	`concat_jobs{state="quarantined"}`,
	"concat_queue_depth",
	"concat_queue_oldest_age_seconds",
	"concat_draining",
	"concat_http_in_flight",
	"concat_workers",
	"concat_workers_busy",
	"concat_events_subscribers",
	"concat_events_broadcast_lag_bytes",
}

// expectedKind is the TYPE a family must declare: the gauges by name, and
// otherwise *_total counters and *_seconds histograms.
func expectedKind(family string) string {
	switch family {
	case "concat_build_info", "concat_jobs", "concat_campaign_transaction_coverage_ratio",
		"concat_queue_depth", "concat_queue_oldest_age_seconds", "concat_draining",
		"concat_http_in_flight", "concat_workers", "concat_workers_busy",
		"concat_events_subscribers", "concat_events_broadcast_lag_bytes":
		return "gauge"
	}
	switch {
	case strings.HasSuffix(family, "_total"):
		return "counter"
	case strings.HasSuffix(family, "_seconds"):
		return "histogram"
	}
	return "unknown"
}

// checkSurface strict-parses one scrape and checks every family's TYPE
// and the always-present series.
func checkSurface(t *testing.T, label, body string) *Scrape {
	t.Helper()
	sc, err := ParseExposition(body)
	if err != nil {
		t.Fatalf("%s scrape rejected: %v\n%s", label, err, body)
	}
	for family, kind := range sc.Types {
		if want := expectedKind(family); kind != want {
			t.Errorf("%s: family %s has TYPE %s, want %s", label, family, kind, want)
		}
	}
	for _, series := range alwaysPresent {
		if _, ok := sc.Samples[series]; !ok {
			t.Errorf("%s: missing always-present series %s", label, series)
		}
	}
	if got := buildInfoVersion(sc); got != serve.Version {
		t.Errorf("%s: build_info version = %q, want %q", label, got, serve.Version)
	}
	return sc
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// runJob posts a request to route and blocks on its report.
func runJob(t *testing.T, base, route string, req serve.Request) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+route, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: HTTP %d", route, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	getBody(t, base+"/campaigns/"+st.ID+"/report")
	return st.ID
}

// TestLiveMetricsSurfaceParsesStrictly scrapes a store-backed service idle
// and again after one campaign and one impact job: each scrape must pass
// the strict parser, declare the expected TYPE for every family and carry
// every always-present series.
func TestLiveMetricsSurfaceParsesStrictly(t *testing.T) {
	backend, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Workers: 1, Store: backend})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	idle := checkSurface(t, "idle", getBody(t, ts.URL+"/metrics"))
	for _, series := range alwaysPresent {
		want := 0.0
		switch series {
		case "concat_http_in_flight", "concat_workers":
			want = 1
		}
		if got := idle.Value(series); got != want {
			t.Errorf("idle: %s = %v, want %v", series, got, want)
		}
	}

	campaign := runJob(t, ts.URL, "/campaigns", serve.Request{Component: "Account"})
	target, err := core.LookupTarget("Account")
	if err != nil {
		t.Fatal(err)
	}
	var spec bytes.Buffer
	if err := target.New(nil).Spec().SaveJSON(&spec); err != nil {
		t.Fatal(err)
	}
	runJob(t, ts.URL, "/impact", serve.Request{OldSpec: spec.Bytes(), NewSpec: spec.Bytes()})

	busy := checkSurface(t, "post-campaign", getBody(t, ts.URL+"/metrics"))
	for family, kind := range map[string]string{
		"concat_case_outcome_total":                  "counter",
		"concat_mutant_kill_latency_seconds":         "histogram",
		"concat_http_requests_total":                 "counter",
		"concat_http_request_duration_seconds":       "histogram",
		"concat_store_get_duration_seconds":          "histogram",
		"concat_job_outcome_total":                   "counter",
		"concat_campaign_transaction_coverage_ratio": "gauge",
	} {
		if got := busy.Types[family]; got != kind {
			t.Errorf("post-campaign: family %s TYPE %q, want %s", family, got, kind)
		}
	}
	if got := busy.Value(`concat_jobs{state="done"}`); got != 2 {
		t.Errorf(`post-campaign: concat_jobs{state="done"} = %v, want 2`, got)
	}
	if busy.Value("concat_impact_kept_total") == 0 || busy.Value("concat_store_misses_total") == 0 {
		t.Errorf("post-campaign: impact kept %v, store misses %v, want both > 0",
			busy.Value("concat_impact_kept_total"), busy.Value("concat_store_misses_total"))
	}
	ratio := "concat_campaign_transaction_coverage_ratio" + obs.Labeled("", "id", campaign, "component", "Account")
	if _, ok := busy.Samples[ratio]; !ok {
		t.Errorf("post-campaign: missing %s", ratio)
	}
}

// TestBuildInfoVersionParsesLabels reads the version label whatever the
// label order, and never mistakes goversion for it.
func TestBuildInfoVersionParsesLabels(t *testing.T) {
	for _, body := range []string{
		"# HELP concat_build_info b\n# TYPE concat_build_info gauge\nconcat_build_info{goversion=\"go1.22\",version=\"0.10.0\"} 1\n",
		"# HELP concat_build_info b\n# TYPE concat_build_info gauge\nconcat_build_info{version=\"0.10.0\",goversion=\"go1.22\"} 1\n",
	} {
		sc, err := ParseExposition(body)
		if err != nil {
			t.Fatal(err)
		}
		if got := buildInfoVersion(sc); got != "0.10.0" {
			t.Errorf("buildInfoVersion(%q) = %q, want 0.10.0", body, got)
		}
	}
}
