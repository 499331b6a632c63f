package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"concat/internal/analysis"
	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/obs"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req Request) (Status, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// fetchReport blocks on the report endpoint until the job completes.
func fetchReport(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: HTTP %d: %s", id, resp.StatusCode, body)
	}
	return body
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// cliTable renders the byte-identity reference for service reports: the
// table `concat mutate -component Account` would print for the same request
// plus the one coverage-summary line the service appends.
func cliTable(t *testing.T) []byte {
	t.Helper()
	target, err := core.LookupTarget("Account")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := target.New(nil).GenerateSuite(driver.Options{
		Seed: 42, MaxAlternatives: 4, Enum: tfm.EnumOptions{LoopBound: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MutationRunOpts("Account", suite, nil, nil,
		core.MutationOptions{Exec: testexec.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Tabulate().Render(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := target.New(nil).Spec().TFM()
	if err != nil {
		t.Fatal(err)
	}
	art, err := cover.FromCampaign(g, suite, res)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(art.Suite.Summary())
	buf.WriteString("\n")
	return buf.Bytes()
}

func TestSubmitReportMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.ID != "c1" {
		t.Errorf("first job ID = %q, want c1", st.ID)
	}
	report := fetchReport(t, ts, st.ID)
	if want := cliTable(t); !bytes.Equal(report, want) {
		t.Errorf("service report differs from CLI table:\n--- service ---\n%s\n--- cli ---\n%s", report, want)
	}
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Errorf("state = %q, want done", final.State)
	}
	if final.Mutants == 0 || final.Killed == 0 {
		t.Errorf("final status lacks totals: %+v", final)
	}
	if !strings.HasPrefix(final.Coverage, "coverage: transactions ") {
		t.Errorf("final status lacks coverage summary: %+v", final)
	}
}

func TestCoverageEndpointServesCanonicalArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/coverage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coverage: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	art, err := cover.Load(resp.Body)
	if err != nil {
		t.Fatalf("artifact did not decode: %v", err)
	}
	if art.Component != "Account" {
		t.Errorf("artifact component = %q", art.Component)
	}
	if art.Suite.TransactionPercent() != 100 {
		t.Errorf("generated driver should reach 100%% transaction coverage, got %s", art.Suite.Summary())
	}
	if len(art.KillMatrix) == 0 || len(art.Operators) == 0 {
		t.Errorf("campaign artifact lacks kill matrix/operators: %d rows, %d operators",
			len(art.KillMatrix), len(art.Operators))
	}
	// The served bytes are the same canonical encoding the artifact re-emits.
	reenc, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/coverage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, reenc) {
		t.Error("served artifact is not canonical: re-encoding changed the bytes")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})

	// Before any campaign the surface still serves: store and queue gauges.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, line := range []string{
		"concat_store_hits_total 0",
		"concat_store_misses_total 0",
		"concat_queue_depth 0",
		`concat_jobs{state="done"} 0`,
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Errorf("idle /metrics missing %q:\n%s", line, body)
		}
	}

	job, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	fetchReport(t, ts, job.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"# TYPE concat_case_outcome_total counter",
		`concat_case_outcome_total{outcome="pass"} `,
		"# TYPE concat_mutant_kill_latency_seconds histogram",
		`concat_mutant_kill_latency_seconds_bucket{operator=`,
		`le="+Inf"`,
		"# TYPE concat_store_misses_total counter",
		`concat_jobs{state="done"} 1`,
		"# TYPE concat_campaign_transaction_coverage_ratio gauge",
		fmt.Sprintf("concat_campaign_transaction_coverage_ratio{component=\"Account\",id=%q} 1", job.ID),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-campaign /metrics missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "concat_store_misses_total ") ||
		strings.Contains(out, "concat_store_misses_total 0\n") {
		t.Errorf("store misses not counted after a cold campaign:\n%s", out)
	}
	// Every exposition line is either a comment or name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, " ")
		if len(fields) != 2 || fields[0] == "" || fields[1] == "" {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestPprofGatedBehindFlag(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag: HTTP %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with flag: HTTP %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index lacks profiles:\n%s", body)
	}
}

func TestEventsStreamValidates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Start streaming immediately — before the campaign finishes — so the
	// stream exercises the live-follow path, then drains to EOF at job end.
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateNDJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("streamed trace invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("streamed trace is empty")
	}
	if !strings.Contains(string(raw), `"kind":"campaign"`) {
		t.Error("trace lacks the campaign root span")
	}
}

func TestWarmResubmitServedFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})

	first, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	coldReport := fetchReport(t, ts, first.ID)
	cold := getStatus(t, ts, first.ID)
	if cold.CacheMisses == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold campaign: hits=%d misses=%d", cold.CacheHits, cold.CacheMisses)
	}

	second, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	warmReport := fetchReport(t, ts, second.ID)
	warm := getStatus(t, ts, second.ID)
	if warm.CacheHits != cold.CacheMisses || warm.CacheMisses != 0 {
		t.Errorf("warm campaign: hits=%d misses=%d, want %d/0", warm.CacheHits, warm.CacheMisses, cold.CacheMisses)
	}
	if !bytes.Equal(coldReport, warmReport) {
		t.Errorf("warm report differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldReport, warmReport)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	// The acceptance bar: at least 8 concurrent submissions, all completing,
	// under -race. Distinct seeds make the campaigns genuinely different.
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := submit(t, ts, Request{Component: "Account", Seed: int64(i + 1)})
			if code != http.StatusAccepted {
				t.Errorf("submission %d: HTTP %d", i, code)
				return
			}
			ids[i] = st.ID
			report := fetchReport(t, ts, st.ID)
			if !bytes.Contains(report, []byte("Results obtained for the Account class")) {
				t.Errorf("submission %d: malformed report:\n%s", i, report)
			}
		}(i)
	}
	wg.Wait()
	// All jobs registered, all done, IDs unique.
	seen := map[string]bool{}
	for i, id := range ids {
		if id == "" {
			continue // submission already failed the test above
		}
		if seen[id] {
			t.Errorf("duplicate job ID %s", id)
		}
		seen[id] = true
		if st := getStatus(t, ts, id); st.State != StateDone {
			t.Errorf("job %d (%s) state = %q", i, id, st.State)
		}
	}
}

func TestQueueFullRejectsWith503(t *testing.T) {
	// One worker, depth 1: pin the worker inside a stub campaign, fill the
	// one queue slot, and the next submission must bounce with 503 +
	// Retry-After — deterministically, with no timing in play.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	s.campaign = func(j *Job) (*analysis.Result, []byte, error) {
		started <- j.ID
		<-release
		return nil, []byte("stub report\n"), nil
	}

	first, code := submit(t, ts, Request{Component: "Account", Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	if got := <-started; got != first.ID {
		t.Fatalf("worker picked up %s, want %s", got, first.ID)
	}
	// Worker busy; this one occupies the single queue slot.
	second, code := submit(t, ts, Request{Component: "Account", Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}
	// Queue full: must bounce.
	body, _ := json.Marshal(Request{Component: "Account", Seed: 3})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	resp.Body.Close()

	close(release)
	// Both accepted jobs still run to completion, and the bounced
	// submission left no job record behind.
	fetchReport(t, ts, first.ID)
	fetchReport(t, ts, second.ID)
	listResp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var all []Status
	if err := json.NewDecoder(listResp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("job list has %d entries, want 2", len(all))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, code := submit(t, ts, Request{Component: "NoSuchComponent"}); code != http.StatusBadRequest {
		t.Errorf("unknown component: HTTP %d, want 400", code)
	}
	if _, code := submit(t, ts, Request{}); code != http.StatusBadRequest {
		t.Errorf("missing component: HTTP %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(`{"component": "Account", "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
	for _, path := range []string{"/campaigns/zz", "/campaigns/zz/report", "/campaigns/zz/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(Request{Component: "Account"}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestJobIDsSequential(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for i := 1; i <= 3; i++ {
		st, code := submit(t, ts, Request{Component: "Account", Seed: int64(i)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		if want := fmt.Sprintf("c%d", i); st.ID != want {
			t.Errorf("job %d ID = %q, want %q", i, st.ID, want)
		}
	}
}
