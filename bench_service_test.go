// Service-level load acceptance: the loadgen harness drives an in-process
// campaign service for a bounded, deterministic budget (fixed seed, warm
// verdict store) and the server's /metrics request counters must reconcile
// exactly — series by series — with the client's own counts. This is the
// end-to-end proof that the RED middleware counts every request exactly
// once under concurrency, and that the exposition output survives a strict
// consumer. The service's throughput and latency are measured by
// concatbench's service-open workload.
package concat

import (
	"net/http/httptest"
	"strings"
	"testing"

	"concat/internal/loadgen"
	"concat/internal/serve"
	"concat/internal/store"
)

func TestServiceLoadgenCountersReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("drives dozens of campaigns through the service")
	}
	s := serve.New(serve.Config{Workers: 2, QueueDepth: 2, Store: store.NewMem()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	res, err := loadgen.Run(loadgen.Config{
		BaseURL:     ts.URL,
		Requests:    24,
		Submitters:  6,
		Subscribers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f campaigns/s, %.1f requests/s, %d HTTP requests, %d series cross-checked, %d rejected 503",
		res.CampaignsPerSecond, res.RequestsPerSecond, res.HTTPRequests,
		res.CrossCheck.Series, res.Backpressure.Rejected503)

	if res.CampaignsCompleted != 24 || res.CampaignsFailed != 0 {
		t.Errorf("campaigns completed=%d failed=%d, want 24/0", res.CampaignsCompleted, res.CampaignsFailed)
	}
	// The acceptance: server-side request totals equal client-side counts
	// for every (route, method, code) series the run produced.
	if !res.CrossCheck.Agree {
		t.Errorf("server/client counter mismatch:\n%s", strings.Join(res.CrossCheck.Mismatches, "\n"))
	}
	if res.CrossCheck.Series < 3 { // at least submit 202, status 200, events 200
		t.Errorf("cross-check covered only %d series", res.CrossCheck.Series)
	}
	if res.Backpressure.MissingRetryAfter != 0 {
		t.Errorf("%d 503 responses lacked Retry-After", res.Backpressure.MissingRetryAfter)
	}
	for _, ep := range []string{"POST /campaigns", "GET /campaigns/{id}"} {
		st, ok := res.Endpoints[ep]
		if !ok || st.Requests == 0 || st.P99US <= 0 || st.P50US > st.P99US {
			t.Errorf("endpoint %s stats implausible: %+v", ep, st)
		}
	}

}
