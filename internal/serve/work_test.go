// Distributed-campaign tests: byte-identity of the 2-worker run against a
// single-process baseline, the shard lease/epoch protocol, and the
// submission-time store requirement. These are the in-process versions of
// what CI's fleet job asserts across real processes.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strconv"
	"strings"
	"testing"
	"time"

	"concat/internal/store"
)

// fetchCoverage blocks on the coverage endpoint until the job completes.
func fetchCoverage(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/coverage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coverage %s: HTTP %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// postLease asks the coordinator for one shard lease; ok=false on 204.
func postLease(t *testing.T, ts *httptest.Server) (ShardLease, bool) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/work/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return ShardLease{}, false
	case http.StatusOK:
		var lease ShardLease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			t.Fatal(err)
		}
		return lease, true
	default:
		t.Fatalf("lease: HTTP %d", resp.StatusCode)
		return ShardLease{}, false
	}
}

// postDone reports a shard completion and returns the HTTP status code.
func postDone(t *testing.T, ts *httptest.Server, lease ShardLease, errMsg string) int {
	t.Helper()
	body, err := json.Marshal(ShardDone{Epoch: lease.Epoch, Error: errMsg})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/work/" + lease.Job + "/shards/" + strconv.Itoa(lease.Shard)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDistributedTwoWorkersByteIdentical is the tentpole property: two
// remote workers pulling shards over HTTP and publishing verdicts through
// the coordinator's /store mount produce a report and coverage artifact
// byte-identical to a single-process run, and the coordinator's merge is
// pure cache replay (zero misses).
func TestDistributedTwoWorkersByteIdentical(t *testing.T) {
	// Single-process baseline on its own server with no store at all.
	_, baseTS := newTestServer(t, Config{})
	baseSt, code := submit(t, baseTS, Request{Component: "Account"})
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: HTTP %d", code)
	}
	baseReport := fetchReport(t, baseTS, baseSt.ID)
	baseCover := fetchCoverage(t, baseTS, baseSt.ID)

	fs, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: fs, ShardLease: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Coordinator: ts.URL,
			Store:       store.NewRemote(ts.URL, nil),
			Parallelism: 1,
			Poll:        10 * time.Millisecond,
		})
		go w.Run(ctx)
	}

	st, code := submit(t, ts, Request{Component: "Account", Distributed: true, Shards: 2})
	if code != http.StatusAccepted {
		t.Fatalf("distributed submit: HTTP %d", code)
	}
	report := fetchReport(t, ts, st.ID)
	if !bytes.Equal(report, baseReport) {
		t.Errorf("2-worker distributed report deviates from single-process baseline:\n--- distributed ---\n%s\n--- baseline ---\n%s", report, baseReport)
	}
	cover := fetchCoverage(t, ts, st.ID)
	if !bytes.Equal(cover, baseCover) {
		t.Errorf("2-worker coverage artifact deviates from single-process baseline")
	}
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("distributed campaign state = %s (%s)", final.State, final.Error)
	}
	// The merge replayed entirely from worker-published verdicts.
	if final.CacheHits == 0 || final.CacheMisses != 0 {
		t.Errorf("merge run cache hits/misses = %d/%d, want all hits", final.CacheHits, final.CacheMisses)
	}
	if final.Mutants == 0 || final.Killed == 0 {
		t.Errorf("distributed campaign found no mutants/kills: %+v", final)
	}
}

// TestShardLeaseReclaimAndStaleEpoch drives the lease protocol by hand: a
// worker that leases a shard and dies loses it after the shard lease
// expires; its stale completion is rejected by epoch; and the merge heals
// the missing work by executing it locally.
func TestShardLeaseReclaimAndStaleEpoch(t *testing.T) {
	fs, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: fs, ShardLease: 50 * time.Millisecond, Lease: 30 * time.Second})
	st, code := submit(t, ts, Request{Component: "Account", Distributed: true, Shards: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	lease1, ok := postLease(t, ts)
	if !ok {
		t.Fatal("no lease for a freshly submitted distributed campaign")
	}
	if lease1.Job != st.ID || lease1.Shards != 1 || lease1.Shard != 0 {
		t.Fatalf("unexpected lease: %+v", lease1)
	}
	// While the lease is live no second lease exists.
	if _, ok := postLease(t, ts); ok {
		t.Fatal("coordinator double-leased a held shard")
	}
	// Worker 1 "dies". Past the shard lease the shard is re-leased with a
	// newer epoch.
	time.Sleep(120 * time.Millisecond)
	lease2, ok := postLease(t, ts)
	if !ok {
		t.Fatal("expired shard was not re-leased")
	}
	if lease2.Shard != 0 || lease2.Epoch <= lease1.Epoch {
		t.Fatalf("re-lease = %+v, want same shard with a newer epoch than %d", lease2, lease1.Epoch)
	}
	// The dead worker's late completion must be rejected...
	if code := postDone(t, ts, lease1, ""); code != http.StatusConflict {
		t.Errorf("stale-epoch completion = HTTP %d, want 409", code)
	}
	// ...and the live lease's accepted, even though it did no real work:
	// the merge executes whatever the store is missing.
	if code := postDone(t, ts, lease2, ""); code != http.StatusNoContent {
		t.Errorf("current-epoch completion = HTTP %d, want 204", code)
	}
	report := fetchReport(t, ts, st.ID)
	if want := cliTable(t); !bytes.Equal(report, want) {
		t.Errorf("self-healed distributed report deviates from CLI table")
	}
	final := getStatus(t, ts, st.ID)
	if final.CacheMisses == 0 {
		t.Errorf("merge after a no-op worker should have executed mutants itself, got %d misses", final.CacheMisses)
	}
}

// TestShardFailureExhaustsBudgetAndFailsJob: a shard that keeps reporting
// failure is re-leased until the attempt budget (Retry.Attempts) is spent,
// then the whole campaign fails deterministically.
func TestShardFailureExhaustsBudgetAndFailsJob(t *testing.T) {
	fs, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: fs, Retry: fastRetry(2), Lease: 30 * time.Second})
	st, code := submit(t, ts, Request{Component: "Account", Distributed: true, Shards: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	for i := 0; i < 2; i++ {
		lease, ok := postLease(t, ts)
		if !ok {
			t.Fatalf("no lease on attempt %d", i+1)
		}
		if code := postDone(t, ts, lease, "boom"); code != http.StatusNoContent {
			t.Fatalf("failure report %d = HTTP %d", i+1, code)
		}
	}
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	waitDone(t, j)
	final := getStatus(t, ts, st.ID)
	if final.State != StateFailed {
		t.Errorf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "boom") {
		t.Errorf("terminal error %q does not carry the shard failure cause", final.Error)
	}
}

// TestDistributedRequiresStore: a coordinator without a verdict store must
// reject distributed submissions up front with 400 — accepting one would
// strand it, since workers would have nowhere to publish.
func TestDistributedRequiresStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, code := submit(t, ts, Request{Component: "Account", Distributed: true})
	if code != http.StatusBadRequest {
		t.Errorf("distributed submit without store = HTTP %d, want 400", code)
	}
}

// TestWorkLeaseNoWork: an idle coordinator answers lease polls with 204.
func TestWorkLeaseNoWork(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, ok := postLease(t, ts); ok {
		t.Error("idle coordinator handed out a lease")
	}
}

// TestShardProgressInStatus: while shards are outstanding, the status
// endpoint reports the distributed campaign's shard progress.
func TestShardProgressInStatus(t *testing.T) {
	fs, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: fs, Lease: 30 * time.Second})
	// On failure the job is left waiting on its shards: stop it at once
	// rather than have the server's Close wait for it to finish.
	t.Cleanup(func() {
		if t.Failed() {
			s.Drain(0)
		}
	})
	st, code := submit(t, ts, Request{Component: "Account", Distributed: true, Shards: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// The 202 precedes the job's start: its shards open on a worker
	// goroutine, so lease only once the status shows them.
	for deadline := time.Now().Add(10 * time.Second); getStatus(t, ts, st.ID).Shards != 2; {
		if time.Now().After(deadline) {
			t.Fatal("the job did not open its 2 shards within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	lease, ok := postLease(t, ts)
	if !ok {
		t.Fatal("no lease")
	}
	// One of two shards done: progress must be visible while running.
	if code := postDone(t, ts, lease, ""); code != http.StatusNoContent {
		t.Fatalf("completion = HTTP %d", code)
	}
	mid := getStatus(t, ts, st.ID)
	if mid.Shards != 2 || mid.ShardsDone != 1 {
		t.Errorf("mid-campaign status shards = %d/%d, want 1/2 done", mid.ShardsDone, mid.Shards)
	}
	// Finish the campaign so server shutdown doesn't wait out the job lease.
	lease2, ok := postLease(t, ts)
	if !ok {
		t.Fatal("no lease for the second shard")
	}
	if code := postDone(t, ts, lease2, ""); code != http.StatusNoContent {
		t.Fatalf("completion = HTTP %d", code)
	}
	fetchReport(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.Shards != 0 || final.ShardsDone != 0 {
		t.Errorf("terminal status still advertises shard progress: %d/%d", final.ShardsDone, final.Shards)
	}
}

// TestReclaimedAttemptRetiresItsShardLeases: when the job lease reclaims a
// distributed attempt, that attempt's shard leases die with it. A dead
// holder leases a shard under attempt 1; nobody else leases anything until
// attempt 2 has started. Every lease handed out must carry its own
// (job, shard, epoch), the attempt-1 holder's completion must be refused
// with 409, and the attempt-2 holders' completions accepted with 204.
func TestReclaimedAttemptRetiresItsShardLeases(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: store.NewMem(), Lease: 150 * time.Millisecond,
		ShardLease: 30 * time.Second, Retry: fastRetry(3)})
	st, code := submit(t, ts, Request{Component: "Account", Distributed: true, Shards: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	var stale ShardLease
	for {
		if l, ok := postLease(t, ts); ok {
			stale = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attempt 1 never offered a shard")
		}
		time.Sleep(time.Millisecond)
	}
	if a := getStatus(t, ts, st.ID).Attempts; a != 1 {
		t.Fatalf("dead holder leased under attempt %d, want 1", a)
	}
	for {
		if cur := getStatus(t, ts, st.ID); cur.Attempts >= 2 && cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attempt 2 never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Lease until the coordinator has nothing left, having seen both shards.
	var leases []ShardLease
	live := map[int]ShardLease{}
	for {
		l, ok := postLease(t, ts)
		if !ok {
			if len(live) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("attempt 2 offered shards %v, want both", live)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		leases = append(leases, l)
		live[l.Shard] = l
	}
	type token struct {
		job          string
		shard, epoch int
	}
	seen := map[token]bool{}
	for _, l := range append([]ShardLease{stale}, leases...) {
		k := token{l.Job, l.Shard, l.Epoch}
		if seen[k] {
			t.Errorf("lease (%s, shard %d, epoch %d) handed out twice", k.job, k.shard, k.epoch)
		}
		seen[k] = true
	}
	if code := postDone(t, ts, stale, ""); code != http.StatusConflict {
		t.Errorf("attempt-1 holder's completion = HTTP %d, want 409", code)
	}
	for shard := 0; shard < 2; shard++ {
		if code := postDone(t, ts, live[shard], ""); code != http.StatusNoContent {
			t.Errorf("live holder's completion of shard %d = HTTP %d, want 204", shard, code)
		}
	}
}

// FuzzShardCompletion posts arbitrary shard path segments and bodies to
// /work/{id}/shards/{shard} of a coordinator whose distributed job c1 has
// both shards leased (epochs 2 and 3). The only answers are 204 applied,
// 400 malformed, 404 unknown campaign, 409 stale and 413 oversized, and
// nothing panics.
func FuzzShardCompletion(f *testing.F) {
	f.Add("c1", "0", []byte(`{"epoch":2}`))
	f.Add("c1", "1", []byte(`{"epoch":3,"error":"boom"}`))
	f.Add("c1", "1", []byte(`{"epoch":2}`))
	f.Add("c1", "2", []byte(`{"epoch":2}`))
	f.Add("c1", "-1", []byte(`{"epoch":2}`))
	f.Add("c1", "x", []byte(`{"epoch":2}`))
	f.Add("c9", "0", []byte(`{"epoch":2}`))
	f.Add("c1", "0", []byte(`{"epoch":2} {}`))
	f.Add("c1", "0", []byte(`{"epoch":"2"}`))
	f.Add("c1", "0", []byte(`{"epoch":2,"extra":1}`))
	f.Fuzz(func(t *testing.T, id, shard string, body []byte) {
		req, err := http.NewRequest(http.MethodPost,
			"/work/"+url.PathEscape(id)+"/shards/"+url.PathEscape(shard), bytes.NewReader(body))
		if err != nil || path.Clean(req.URL.Path) != req.URL.Path {
			t.Skip("not a routable completion path") // the mux redirects or rejects it
		}
		s := newServer(Config{Store: store.NewMem()})
		j := s.newJob(1, Request{Component: "Account", Distributed: true, Shards: 2})
		s.jobs[j.ID] = j
		s.leases.add(j.ID, 0, false)
		now := time.Now()
		if _, _, ok := s.leases.grant(j.ID, now, time.Hour); !ok {
			t.Fatal("job attempt not granted")
		}
		if _, ok := s.leases.openShards(j.ID, 2); !ok {
			t.Fatal("shards not opened")
		}
		for i := 0; i < 2; i++ {
			if _, ok := s.leaseShard(now); !ok {
				t.Fatal("shard not leased")
			}
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST %s = HTTP %d: %s", req.URL.Path, rec.Code, rec.Body)
		}
	})
}
