package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"concat/internal/sandbox"
	"concat/internal/serve/chaos"
)

// fastRetry keeps retry/lease tests snappy without changing the semantics
// under test.
func fastRetry(attempts int) sandbox.RetryPolicy {
	return sandbox.RetryPolicy{Attempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

// counterValue reads one of the server's obs.Metrics counters.
func counterValue(s *Server, name string) int64 {
	return s.metrics.Snapshot().Counters[name]
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state", j.ID)
	}
}

func TestBackoffDelayDeterministic(t *testing.T) {
	p := sandbox.RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 500 * time.Millisecond}, // capped
		{9, 500 * time.Millisecond},
	} {
		if got := backoffDelay(p, tc.attempt); got != tc.want {
			t.Errorf("backoffDelay(attempt %d) = %s, want %s", tc.attempt, got, tc.want)
		}
	}
}

func TestRetryAfterComputedFromQueueDepth(t *testing.T) {
	// One worker pinned in a stub campaign, three jobs queued, recent jobs
	// averaging 2s: the 503 must carry Retry-After ceil(3*2s/1) = 6, not the
	// old hard-coded 1.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 3})
	started := make(chan string, 8)
	release := make(chan struct{})
	s.campaign = func(j *Job) (outcome, error) {
		started <- j.ID
		<-release
		return outcome{report: []byte("stub report\n")}, nil
	}
	defer close(release)
	for i := 0; i < 4; i++ {
		s.recordDuration(2 * time.Second)
	}

	first, code := submit(t, ts, Request{Component: "Account", Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	<-started // worker now pinned; the queue is empty again
	for i := 2; i <= 4; i++ {
		if _, code := submit(t, ts, Request{Component: "Account", Seed: int64(i)}); code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
	}
	body, _ := json.Marshal(Request{Component: "Account", Seed: 5})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: HTTP %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want 6 (3 queued * 2s mean / 1 worker)", got)
	}
	_ = first
}

func TestWorkerPanicRetriesThenSucceeds(t *testing.T) {
	// The chaos kit panics the first two attempts mid-campaign; the retry
	// loop must contain both panics and let the third attempt finish.
	faults := &chaos.Faults{CampaignStart: func(jobID string, attempt int) {
		if attempt < 3 {
			panic(fmt.Sprintf("injected crash on attempt %d", attempt))
		}
	}}
	s, ts := newTestServer(t, Config{Retry: fastRetry(3), Faults: faults})
	s.campaign = func(j *Job) (outcome, error) {
		return outcome{report: []byte("stub report\n")}, nil
	}
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (%s), want done", final.State, final.Error)
	}
	if final.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", final.Attempts)
	}
	if got := counterValue(s, "job.retries"); got != 2 {
		t.Errorf("retry counter = %d, want 2", got)
	}
	if report := fetchReport(t, ts, st.ID); !bytes.Equal(report, []byte("stub report\n")) {
		t.Errorf("report after retries = %q", report)
	}
}

func TestPoisonJobQuarantined(t *testing.T) {
	// A job that crashes on every attempt must converge to quarantine — a
	// terminal state with the cause — instead of retrying forever.
	faults := &chaos.Faults{CampaignStart: func(jobID string, attempt int) {
		panic("poison")
	}}
	s, ts := newTestServer(t, Config{Retry: fastRetry(2), Faults: faults})
	s.campaign = func(j *Job) (outcome, error) {
		return outcome{report: []byte("unreachable\n")}, nil
	}
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	final := getStatus(t, ts, st.ID)
	if final.State != StateQuarantined {
		t.Fatalf("state = %q, want quarantined", final.State)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want the full budget of 2", final.Attempts)
	}
	if final.Error == "" {
		t.Error("quarantined job lost its failure cause")
	}
	if got := counterValue(s, "jobs.quarantined"); got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("quarantined report: HTTP %d, want 500", resp.StatusCode)
	}
}

func TestLeaseReclaimOfWedgedWorker(t *testing.T) {
	// The first attempt wedges past its lease; the job must be reclaimed and
	// retried, and the wedged attempt's eventual result discarded.
	var attempts atomic.Int64
	wedged := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, Lease: 50 * time.Millisecond, Retry: fastRetry(3)})
	s.campaign = func(j *Job) (outcome, error) {
		if attempts.Add(1) == 1 {
			<-wedged
			return outcome{report: []byte("stale result from the wedged attempt\n")}, nil
		}
		return outcome{report: []byte("fresh result\n")}, nil
	}
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if got := counterValue(s, "lease.reclaims"); got != 1 {
		t.Errorf("reclaim counter = %d, want 1", got)
	}
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("after reclaim: state=%q attempts=%d, want done/2", final.State, final.Attempts)
	}
	// Unwedge the stale attempt: its late result must change nothing.
	close(wedged)
	time.Sleep(20 * time.Millisecond)
	if report := fetchReport(t, ts, st.ID); !bytes.Equal(report, []byte("fresh result\n")) {
		t.Errorf("stale attempt overwrote the report: %q", report)
	}
}

func TestDrainRejectsThenCheckpoints(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Journal: jn})
	release := make(chan struct{})
	started := make(chan string, 1)
	s.campaign = func(j *Job) (outcome, error) {
		started <- j.ID
		<-release
		return outcome{report: []byte("stub report\n")}, nil
	}
	st, code := submit(t, ts, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	<-started

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(10 * time.Second) }()
	// Wait for admission to close, then verify the HTTP surface: 503 with a
	// Retry-After, not a hang or a hard close.
	for {
		if _, err := s.Submit(Request{Component: "Account", Seed: 9}); err == ErrDraining {
			break
		} else if err != nil {
			t.Fatalf("Submit while draining = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	body, _ := json.Marshal(Request{Component: "Account", Seed: 10})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}

	// The in-flight job finishes; drain reports clean and checkpoints it.
	close(release)
	if !<-drained {
		t.Fatal("Drain reported unclean with ample deadline")
	}
	if final := getStatus(t, ts, st.ID); final.State != StateDone {
		t.Errorf("in-flight job after drain: state = %q, want done", final.State)
	}
	cp, ok := jn.LastCheckpoint()
	if !ok || !cp.Clean || cp.Active != 0 {
		t.Errorf("checkpoint = %+v, %v; want clean with 0 active", cp, ok)
	}
}

func TestDrainDeadlineLeavesJobsJournaled(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Journal: jn})
	t.Cleanup(s.Close)
	started := make(chan string, 1)
	s.campaign = func(j *Job) (outcome, error) {
		started <- j.ID
		select {} // wedged until the process "dies"
	}
	if _, err := s.Submit(Request{Component: "Account"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Submit(Request{Component: "Account", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if s.Drain(20 * time.Millisecond) {
		t.Fatal("Drain reported clean with a wedged job")
	}
	cp, ok := jn.LastCheckpoint()
	if !ok || cp.Clean || cp.Active != 2 {
		t.Errorf("checkpoint = %+v, %v; want unclean with 2 active", cp, ok)
	}
	recs, _, err := jn.Replay()
	if err != nil {
		t.Fatal(err)
	}
	byState := map[string]int{}
	for _, rec := range recs {
		byState[rec.State]++
	}
	if byState[StateRunning] != 1 || byState[StateQueued] != 1 {
		t.Errorf("journal after hard drain = %v, want 1 running + 1 queued", byState)
	}
}

func TestRestartReplaysPendingJobs(t *testing.T) {
	dir := t.TempDir()
	jn1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Workers: 1, Journal: jn1})
	started := make(chan string, 1)
	srv1.campaign = func(j *Job) (outcome, error) {
		started <- j.ID
		select {} // the process dies mid-campaign
	}
	for seed := 1; seed <= 2; seed++ {
		if _, err := srv1.Submit(Request{Component: "Account", Seed: int64(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	srv1.Drain(10 * time.Millisecond) // force-stop: c1 running, c2 queued

	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The stub must be in place before start runs the workers and
	// re-enqueues the replayed jobs, or they would race the assignment.
	srv2 := newServer(Config{Workers: 1, Journal: jn2})
	srv2.campaign = func(j *Job) (outcome, error) {
		return outcome{report: []byte("replayed " + j.ID + "\n")}, nil
	}
	srv2.start()
	t.Cleanup(srv2.Close)
	if got := counterValue(srv2, "journal.replayed"); got != 2 {
		t.Fatalf("replayed %d jobs, want 2", got)
	}
	for _, id := range []string{"c1", "c2"} {
		j, ok := srv2.Job(id)
		if !ok {
			t.Fatalf("job %s not replayed", id)
		}
		waitDone(t, j)
		st := j.Status()
		if st.State != StateDone {
			t.Errorf("replayed %s: state = %q (%s)", id, st.State, st.Error)
		}
	}
	// The interrupted attempt stays counted, so crash-looping jobs converge
	// on quarantine across restarts instead of resetting their budget.
	if j, _ := srv2.Job("c1"); j.Attempts() != 2 {
		t.Errorf("c1 attempts after replay = %d, want 2 (interrupted + replay)", j.Attempts())
	}
	// ID allocation resumes after the journaled maximum.
	j3, err := srv2.Submit(Request{Component: "Account", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "c3" {
		t.Errorf("post-replay ID = %q, want c3", j3.ID)
	}
	waitDone(t, j3)
}

// TestReplayedExhaustedJobQuarantined: a job journaled as running on its
// last budgeted attempt lost its holder when the process died. Replay
// applies the lease table's reclaim rule and quarantines it instead of
// granting an attempt past the budget, so a job that kills the process on
// every attempt stops crash-looping the service.
func TestReplayedExhaustedJobQuarantined(t *testing.T) {
	jn, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(JobRecord{Seq: 1, ID: "c1", Req: Request{Component: "Account"},
		State: StateRunning, Attempts: 3}); err != nil {
		t.Fatal(err)
	}
	s := newServer(Config{Workers: 1, Journal: jn, Retry: fastRetry(3)})
	var ran atomic.Int64
	s.campaign = func(j *Job) (outcome, error) {
		ran.Add(1)
		return outcome{report: []byte("ran past the budget\n")}, nil
	}
	s.start()
	t.Cleanup(s.Close)
	j, ok := s.Job("c1")
	if !ok {
		t.Fatal("job not replayed")
	}
	waitDone(t, j)
	s.waitIdle(time.Time{})
	st := j.Status()
	if st.State != StateQuarantined || st.Attempts != 3 || !strings.Contains(st.Error, "exited mid-attempt") {
		t.Errorf("replayed exhausted job = %+v, want quarantined after 3 attempts", st)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("campaign ran %d time(s) past the budget", n)
	}
	if got := counterValue(s, "jobs.quarantined"); got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}
	recs, _, err := jn.Replay()
	if err != nil || len(recs) != 1 || recs[0].State != StateQuarantined {
		t.Errorf("journal after replay = %+v, %v; want c1 quarantined", recs, err)
	}
}

func TestRestartRestoresTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	jn1, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Workers: 1, Journal: jn1})
	srv1.campaign = func(j *Job) (outcome, error) {
		return outcome{report: []byte("finished report\n")}, nil
	}
	j, err := srv1.Submit(Request{Component: "Account"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	srv1.Close()

	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Workers: 1, Journal: jn2})
	t.Cleanup(srv2.Close)
	if got := counterValue(srv2, "journal.replayed"); got != 0 {
		t.Errorf("terminal job re-queued: replay counter = %d, want 0", got)
	}
	r, ok := srv2.Job("c1")
	if !ok {
		t.Fatal("terminal job lost across restart")
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("restored terminal job is not done")
	}
	st := r.Status()
	if st.State != StateDone {
		t.Errorf("restored state = %q", st.State)
	}
	r.mu.Lock()
	report := r.out.report
	r.mu.Unlock()
	if !bytes.Equal(report, []byte("finished report\n")) {
		t.Errorf("restored report = %q", report)
	}
}

func TestMetricsExposeRecoveryCounters(t *testing.T) {
	// The recovery counters are present from process start — absence must
	// never be confusable with zero.
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"concat_journal_replayed_total 0",
		"concat_journal_corrupt_total 0",
		"concat_lease_reclaims_total 0",
		"concat_job_retries_total 0",
		"concat_jobs_quarantined_total 0",
		"concat_store_quarantined_total 0",
		"concat_draining 0",
	} {
		if !bytes.Contains(body.Bytes(), []byte(line+"\n")) {
			t.Errorf("idle /metrics missing %q:\n%s", line, body.String())
		}
	}
}
