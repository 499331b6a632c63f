// Regression tests for the service-layer bugfixes: the events stream must
// flush its response headers before the first trace chunk, and Retry-After
// must stay within its ceiling no matter how deep and slow the queue is.

package serve

import (
	"io"
	"net/http"
	"testing"
	"time"
)

// TestEventsHeadersFlushedBeforeFirstEvent pins the subscribe-time flush: a
// client subscribing to a submitted but still-quiet campaign (no trace
// spans yet) must receive the 200 and content type immediately instead of
// hanging until the first span lands.
func TestEventsHeadersFlushedBeforeFirstEvent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.campaign = func(j *Job) (outcome, error) {
		close(started)
		<-release
		return outcome{report: []byte("stub report\n")}, nil
	}
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	<-started

	// The campaign is pinned before writing any span. Without the
	// subscribe-time flush this Get blocks until the timeout because no
	// response bytes ever leave the server.
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		close(release)
		t.Fatalf("subscriber to a quiet campaign got no response headers: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("events subscribe = HTTP %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	close(release)
	// The stream still terminates cleanly when the job finishes.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Errorf("draining events stream: %v", err)
	}
}

// TestRetryAfterSecondsCapped pins the Retry-After ceiling: a deep queue of
// slow campaigns must advise maxRetryAfterSeconds, not a multi-hour value a
// well-behaved client would actually honor.
func TestRetryAfterSecondsCapped(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)

	set := func(durs []time.Duration, queued int) {
		s.mu.Lock()
		s.durs = durs
		s.queued = queued
		s.mu.Unlock()
	}
	// 10 queued jobs averaging 2 hours: uncapped this is 72000 seconds.
	set([]time.Duration{2 * time.Hour}, 10)
	if got := s.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Errorf("deep slow queue: Retry-After = %d, want the %d cap", got, maxRetryAfterSeconds)
	}
	// Empty queue keeps the 1-second floor.
	set(nil, 0)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("idle server: Retry-After = %d, want the 1s floor", got)
	}
	// In between, the estimate passes through untouched: 3 * 2s / 1 = 6.
	set([]time.Duration{2 * time.Second}, 3)
	if got := s.retryAfterSeconds(); got != 6 {
		t.Errorf("moderate queue: Retry-After = %d, want 6", got)
	}
	set(nil, 0) // leave the bookkeeping consistent for Close
}
