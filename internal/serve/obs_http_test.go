package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"concat/internal/obs"
	"concat/internal/serve/chaos"
)

// TestReadyzStartingThenReady pins the readiness lifecycle: while the
// journal replay is still running /readyz answers 503 (and /healthz keeps
// answering 200 — liveness and readiness are distinct probes), and once the
// start sequence completes /readyz flips to 200.
func TestReadyzStartingThenReady(t *testing.T) {
	release := make(chan struct{})
	s := NewStarting(Config{Faults: &chaos.Faults{JournalReplay: func() { <-release }}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("starting /readyz = HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("starting /readyz missing Retry-After")
	}
	if !strings.Contains(string(body), "starting") {
		t.Errorf("starting /readyz body = %q, want to mention starting", body)
	}
	if s.Ready() {
		t.Error("Ready() = true while journal replay is blocked")
	}

	// Liveness stays green the whole time.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during start = HTTP %d, want 200", resp.StatusCode)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready after replay released")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("ready /readyz = HTTP %d %q, want 200 ready", resp.StatusCode, body)
	}
}

// TestReadyzDraining pins the other unready state: a draining server
// answers 503 with Retry-After while /healthz still reports the process
// alive.
func TestReadyzDraining(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Drain(time.Second)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining /readyz missing Retry-After")
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("draining /readyz body = %q, want draining", body)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = HTTP %d, want 200", resp.StatusCode)
	}
}

// TestMetricsExposition pins the /metrics contract the loadgen harness and
// any Prometheus scraper depend on: the versioned text content type, the
// build-info series, and the service gauges.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("/metrics Content-Type = %q, want %q", got, want)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# HELP concat_build_info ",
		"# TYPE concat_build_info gauge",
		`concat_build_info{goversion="` + runtime.Version() + `",version="` + Version + `"} 1`,
		"# TYPE concat_http_in_flight gauge",
		"concat_http_in_flight 1\n", // this very scrape
		"concat_workers 1\n",
		"concat_workers_busy 0\n",
		"concat_events_subscribers 0\n",
		"concat_events_broadcast_lag_bytes 0\n",
		"concat_queue_oldest_age_seconds 0\n",
		"# HELP concat_queue_depth ",
		"# TYPE concat_queue_depth gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestInstrumentRecordsRED drives a few requests through the handler and
// asserts the middleware recorded them: per-(route, method, code) counters
// with the registration pattern as the route label, latency histograms, and
// an X-Request-ID on every response.
func TestInstrumentRecordsRED(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("response missing X-Request-ID")
		}
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Errorf("got %d distinct request IDs over 3 requests", len(ids))
	}
	// A 404 on a parameterized route must land under the pattern label, not
	// the raw URL.
	resp, err := http.Get(ts.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing campaign = HTTP %d, want 404", resp.StatusCode)
	}

	snap := s.metrics.Snapshot()
	if got := snap.Counters[obs.Labeled("http_requests",
		"route", "/healthz", "method", "GET", "code", "200")]; got != 3 {
		t.Errorf("healthz counter = %d, want 3", got)
	}
	if got := snap.Counters[obs.Labeled("http_requests",
		"route", "/campaigns/{id}", "method", "GET", "code", "404")]; got != 1 {
		t.Errorf("campaign 404 counter = %d, want 1", got)
	}
	h, ok := snap.Durations[obs.Labeled("http_request_duration",
		"route", "/healthz", "method", "GET")]
	if !ok || h.Count != 3 {
		t.Errorf("healthz duration histogram = %+v, want 3 observations", h)
	}
}

// TestAccessLogDoesNotPerturbReports is the determinism pin for the whole
// observability layer: the same campaign submitted to an access-logged
// server and to a silent one must produce byte-identical reports, and the
// log itself must be well-formed NDJSON with one entry per request.
func TestAccessLogDoesNotPerturbReports(t *testing.T) {
	var logBuf bytes.Buffer
	logged := New(Config{AccessLog: &logBuf})
	tsLogged := httptest.NewServer(logged.Handler())
	t.Cleanup(func() {
		tsLogged.Close()
		logged.Close()
	})
	_, tsSilent := newTestServer(t, Config{})

	req := Request{Component: "Account"}
	stLogged, code := submit(t, tsLogged, req)
	if code != http.StatusAccepted {
		t.Fatalf("logged submit = HTTP %d", code)
	}
	stSilent, code := submit(t, tsSilent, req)
	if code != http.StatusAccepted {
		t.Fatalf("silent submit = HTTP %d", code)
	}
	repLogged := fetchReport(t, tsLogged, stLogged.ID)
	repSilent := fetchReport(t, tsSilent, stSilent.ID)
	if !bytes.Equal(repLogged, repSilent) {
		t.Errorf("access-logged report differs from unlogged report:\nlogged:\n%s\nsilent:\n%s",
			repLogged, repSilent)
	}

	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	if len(lines) != 2 { // POST /campaigns + GET report
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	var first AccessLogEntry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, lines[0])
	}
	if first.Route != "/campaigns" || first.Method != "POST" || first.Status != http.StatusAccepted {
		t.Errorf("first access entry = %+v, want POST /campaigns 202", first)
	}
	if first.ID == "" || first.Time == "" {
		t.Errorf("access entry missing id/ts: %+v", first)
	}
	var second AccessLogEntry
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Route != "/campaigns/{id}/report" || second.Status != http.StatusOK {
		t.Errorf("second access entry = %+v, want report route 200", second)
	}
}
