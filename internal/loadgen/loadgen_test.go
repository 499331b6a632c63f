package loadgen

import (
	"net/http/httptest"
	"strings"
	"testing"

	"concat/internal/serve"
	"concat/internal/store"
)

func TestParseExpositionStrict(t *testing.T) {
	valid := `# HELP concat_http_requests_total HTTP requests served.
# TYPE concat_http_requests_total counter
concat_http_requests_total{code="200",method="GET",route="/healthz"} 3
# HELP concat_http_request_duration_seconds Request latency.
# TYPE concat_http_request_duration_seconds histogram
concat_http_request_duration_seconds_bucket{le="0.001"} 2
concat_http_request_duration_seconds_bucket{le="+Inf"} 3
concat_http_request_duration_seconds_sum 0.0042
concat_http_request_duration_seconds_count 3
# HELP concat_weird_total Odd labels.
# TYPE concat_weird_total counter
concat_weird_total{v="a\\b\"c d"} 1
`
	s, err := ParseExposition(valid)
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if got := s.Value(`concat_http_requests_total{code="200",method="GET",route="/healthz"}`); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	if got := s.Value(`concat_weird_total{v="a\\b\"c d"}`); got != 1 {
		t.Errorf("escaped-label series = %v, want 1", got)
	}
	if s.Types["concat_http_request_duration_seconds"] != "histogram" {
		t.Errorf("histogram family type = %q", s.Types["concat_http_request_duration_seconds"])
	}

	for name, bad := range map[string]string{
		"blank line":       "# HELP a b\n# TYPE a counter\na 1\n\n",
		"no TYPE":          "orphan_metric 1\n",
		"HELP without doc": "# HELP lonely\n# TYPE lonely counter\nlonely 1\n",
		"unknown kind":     "# HELP a b\n# TYPE a summary\na 1\n",
		"bad value":        "# HELP a b\n# TYPE a counter\na one\n",
		"duplicate series": "# HELP a b\n# TYPE a counter\na 1\na 2\n",
		"unbalanced brace": "# HELP a b\n# TYPE a counter\na{x=\"y\" 1\n",
		"second HELP":      "# HELP a b\n# HELP a c\n# TYPE a counter\na 1\n",
		"second TYPE":      "# HELP a b\n# TYPE a counter\na 1\n# TYPE a counter\n",
		"malformed labels": "# HELP a b\n# TYPE a counter\na{x=\"y\"z=\"w\"} 1\n",
		"repeated label":   "# HELP a b\n# TYPE a counter\na{x=\"y\",x=\"z\"} 1\n",
		"empty body":       "",
	} {
		if _, err := ParseExposition(bad); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}} {
		if got := quantileUS(sorted, tc.q); got != tc.want {
			t.Errorf("quantileUS(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantileUS(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	if got := quantileUS([]int64{7}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %d, want 7", got)
	}
}

// TestRunAgainstService is the harness's own end-to-end: a small budget
// against an in-process service must complete every campaign, reconcile the
// server's request counters against the client's exactly, and never see a
// 503 without Retry-After.
func TestRunAgainstService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns through the service")
	}
	s := serve.New(serve.Config{Workers: 2, QueueDepth: 4, Store: store.NewMem()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	res, err := Run(Config{
		BaseURL:     ts.URL,
		Requests:    8,
		Submitters:  3,
		Subscribers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CampaignsCompleted != 8 || res.CampaignsFailed != 0 {
		t.Errorf("campaigns completed=%d failed=%d, want 8/0",
			res.CampaignsCompleted, res.CampaignsFailed)
	}
	if !res.CrossCheck.Agree {
		t.Errorf("server/client counter mismatch:\n%s", strings.Join(res.CrossCheck.Mismatches, "\n"))
	}
	if res.CrossCheck.Series == 0 {
		t.Error("cross-check compared no series")
	}
	if res.Backpressure.MissingRetryAfter != 0 {
		t.Errorf("%d 503s lacked Retry-After", res.Backpressure.MissingRetryAfter)
	}
	submit, ok := res.Endpoints["POST /campaigns"]
	if !ok || submit.Requests < 8 || submit.P99US <= 0 {
		t.Errorf("submit endpoint stats = %+v, want >=8 requests with p99 > 0", submit)
	}
	if res.ServerVersion != serve.Version {
		t.Errorf("server version = %q, want %q", res.ServerVersion, serve.Version)
	}
	if res.EventBytes <= 0 {
		t.Error("subscribers consumed no event bytes")
	}
	if res.Config.Component != "Account" || res.Config.Seed != 42 {
		t.Errorf("defaults not applied: %+v", res.Config)
	}
}

// FuzzParseExposition feeds arbitrary bodies to the strict parser: it
// must never panic, and an accepted body must have a declared TYPE for
// every sample and a well-formed label set on every series.
func FuzzParseExposition(f *testing.F) {
	f.Add("# HELP a b\n# TYPE a counter\na 1\n")
	f.Add("# HELP h d\n# TYPE h histogram\nh_bucket{le=\"+Inf\",k=\"a\\\\b\\\"c\"} 2\nh_sum 0.5\nh_count 2\n")
	f.Add("# TYPE g gauge\ng{x=\"}{ \"} -1e+06\n")
	f.Fuzz(func(t *testing.T, body string) {
		sc, err := ParseExposition(body)
		if err != nil {
			return
		}
		for series := range sc.Samples {
			name, labels, hasLabels := strings.Cut(series, "{")
			if _, ok := sc.Types[sampleFamily(name)]; !ok {
				t.Errorf("accepted sample %s without a TYPE", series)
			}
			if _, rest, err := parseLabels(labels); hasLabels && (err != nil || rest != "") {
				t.Errorf("accepted series %s with a bad label set (%v, trailing %q)", series, err, rest)
			}
		}
	})
}
