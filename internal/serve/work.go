// Distributed campaigns, coordinator side. A distributed job's mutants are
// split into shards by their deterministic enumeration index; remote
// `concat work` processes lease shards over POST /work/lease, execute them
// with the same campaign machinery the local path uses, publish every
// verdict into the shared verdict store, and report completion. Shard
// leases reuse the service's recovery vocabulary: a worker that dies or
// wedges loses its lease, the shard is re-leased to the next worker that
// asks, and the stale worker's late completion is rejected by epoch token —
// the per-shard miniature of the job-level lease/epoch protocol.
//
// The merge is deterministic by construction: once every shard has
// landed, the coordinator re-runs the full campaign warm against the store
// (runLocal), where every mutant verdict replays as a cache hit. Because
// cached replay is byte-identical to execution, a 2-worker run's report and
// coverage artifact are byte-identical to a single-process run's — the
// fleet changes wall-clock time, never results. The merge also self-heals:
// any verdict a shard failed to publish is simply executed locally.

package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"concat/internal/analysis"
	"concat/internal/store"
)

// DefaultShardLease bounds one worker's lease on one shard when Config
// leaves ShardLease zero. Shards are fractions of a campaign, so the
// default is well under the job-level DefaultLease.
const DefaultShardLease = 2 * time.Minute

// ShardLease is the wire form of one leased shard: everything a worker
// needs to execute its fraction of the campaign and report back.
type ShardLease struct {
	// Job is the coordinator's campaign ID, addressed in the completion POST.
	Job string `json:"job"`
	// Req is the campaign submission; the worker derives the suite and
	// execution options from it exactly as the coordinator would.
	Req Request `json:"req"`
	// Shard/Shards select the mutant subset: enumeration indices congruent
	// to Shard mod Shards.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Epoch is the lease's validity token: a completion carrying a stale
	// epoch (the shard was reclaimed and re-leased meanwhile) is rejected.
	Epoch int `json:"epoch"`
}

// ShardDone is the completion body a worker posts for a finished shard.
type ShardDone struct {
	Epoch int `json:"epoch"`
	// Error, when non-empty, reports shard execution failure; the
	// coordinator re-leases the shard while the attempt budget lasts.
	Error string `json:"error,omitempty"`
}

// Shard states.
const (
	shardPending = iota
	shardLeased
	shardDone
)

// Completion verdicts surfaced to the HTTP layer.
var (
	errNoShardSet = errors.New("serve: no distributed campaign with that id")
	errBadShard   = errors.New("serve: shard index out of range")
	errStaleShard = errors.New("serve: stale shard lease")
)

// shardSet tracks one distributed job's shards through
// pending -> leased -> done, with per-shard epochs and lease deadlines.
type shardSet struct {
	jobID       string
	req         Request
	count       int
	lease       time.Duration
	maxAttempts int

	mu        sync.Mutex
	state     []int
	epoch     []int
	deadline  []time.Time
	attempts  []int // leases granted per shard, counting the one in flight
	remaining int
	failMsg   string
	finished  bool
	done      chan struct{}
}

// tryLease reclaims any expired leases, then leases the first pending
// shard. reclaims reports how many expired leases it took back (for the
// server's counter) regardless of whether a lease was granted.
func (set *shardSet) tryLease(now time.Time) (lease ShardLease, reclaims int, ok bool) {
	set.mu.Lock()
	defer set.mu.Unlock()
	if set.finished {
		return ShardLease{}, 0, false
	}
	for i := range set.state {
		if set.state[i] != shardLeased || now.Before(set.deadline[i]) {
			continue
		}
		// The holder is presumed dead; bump the epoch so its late
		// completion becomes a no-op.
		reclaims++
		set.epoch[i]++
		if set.attempts[i] >= set.maxAttempts {
			set.failLocked(fmt.Sprintf("shard %d/%d abandoned after %d attempts", i, set.count, set.attempts[i]))
			return ShardLease{}, reclaims, false
		}
		set.state[i] = shardPending
	}
	for i := range set.state {
		if set.state[i] != shardPending {
			continue
		}
		set.state[i] = shardLeased
		set.epoch[i]++
		set.attempts[i]++
		set.deadline[i] = now.Add(set.lease)
		return ShardLease{
			Job:    set.jobID,
			Req:    set.req,
			Shard:  i,
			Shards: set.count,
			Epoch:  set.epoch[i],
		}, reclaims, true
	}
	return ShardLease{}, reclaims, false
}

// complete applies a worker's completion report. A failed shard goes back
// to pending while its attempt budget lasts; spending the budget fails the
// whole set (and with it the job).
func (set *shardSet) complete(shard int, d ShardDone) error {
	set.mu.Lock()
	defer set.mu.Unlock()
	if shard < 0 || shard >= set.count {
		return errBadShard
	}
	if set.finished || set.state[shard] != shardLeased || set.epoch[shard] != d.Epoch {
		return errStaleShard
	}
	set.epoch[shard]++
	if d.Error != "" {
		if set.attempts[shard] >= set.maxAttempts {
			set.failLocked(fmt.Sprintf("shard %d/%d failed after %d attempts: %s", shard, set.count, set.attempts[shard], d.Error))
		} else {
			set.state[shard] = shardPending
		}
		return nil
	}
	set.state[shard] = shardDone
	set.remaining--
	if set.remaining == 0 {
		set.finished = true
		close(set.done)
	}
	return nil
}

// failLocked marks the set failed and releases the waiting coordinator.
// Callers hold set.mu.
func (set *shardSet) failLocked(msg string) {
	if set.finished {
		return
	}
	set.failMsg = msg
	set.finished = true
	close(set.done)
}

// failure returns the terminal failure message ("" on success or while
// running).
func (set *shardSet) failure() string {
	set.mu.Lock()
	defer set.mu.Unlock()
	return set.failMsg
}

// progress reports completed and total shards.
func (set *shardSet) progress() (completed, total int) {
	set.mu.Lock()
	defer set.mu.Unlock()
	return set.count - set.remaining, set.count
}

// registerShards publishes a distributed job's shards for leasing.
func (s *Server) registerShards(j *Job, count int) *shardSet {
	set := &shardSet{
		jobID:       j.ID,
		req:         j.Req,
		count:       count,
		lease:       s.cfg.shardLease(),
		maxAttempts: s.cfg.retryPolicy().Attempts,
		state:       make([]int, count),
		epoch:       make([]int, count),
		deadline:    make([]time.Time, count),
		attempts:    make([]int, count),
		remaining:   count,
		done:        make(chan struct{}),
	}
	s.workMu.Lock()
	s.shardSets = append(s.shardSets, set)
	s.workMu.Unlock()
	return set
}

// unregisterShards retires a set once its campaign attempt concludes.
func (s *Server) unregisterShards(set *shardSet) {
	s.workMu.Lock()
	kept := s.shardSets[:0]
	for _, c := range s.shardSets {
		if c != set {
			kept = append(kept, c)
		}
	}
	s.shardSets = kept
	s.workMu.Unlock()
}

// shardSetOf finds the newest registered set for a job ID — a retried
// attempt may briefly coexist with its abandoned predecessor, and new
// completions belong to the newest.
func (s *Server) shardSetOf(jobID string) *shardSet {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	for i := len(s.shardSets) - 1; i >= 0; i-- {
		if s.shardSets[i].jobID == jobID {
			return s.shardSets[i]
		}
	}
	return nil
}

// leaseShard scans registered sets in job order and leases the first
// available shard.
func (s *Server) leaseShard(now time.Time) (ShardLease, bool) {
	s.workMu.Lock()
	sets := append([]*shardSet(nil), s.shardSets...)
	s.workMu.Unlock()
	for _, set := range sets {
		lease, reclaims, ok := set.tryLease(now)
		if reclaims > 0 {
			s.metrics.Inc("shard.reclaims", int64(reclaims))
			s.logf("serve: %s reclaimed %d expired shard lease(s)", set.jobID, reclaims)
		}
		if ok {
			s.metrics.Inc("shard.leases", 1)
			s.logf("serve: %s shard %d/%d leased (epoch %d)", lease.Job, lease.Shard, lease.Shards, lease.Epoch)
			return lease, true
		}
	}
	return ShardLease{}, false
}

// status is Job.Status plus the server-side overlay: shard progress for a
// running distributed campaign.
func (s *Server) status(j *Job) Status {
	st := j.Status()
	if set := s.shardSetOf(j.ID); set != nil {
		st.ShardsDone, st.Shards = set.progress()
	}
	return st
}

// runDistributed coordinates one distributed campaign attempt: publish the
// shards, wait for workers to complete them, then merge by running the
// campaign warm against the shared store. The wait is backstopped just
// past the job lease — if workers never show up, the job-level lease
// reclaims the attempt anyway, and the backstop keeps this goroutine (and
// its shard set) from leaking.
func (s *Server) runDistributed(j *Job) (*analysis.Result, []byte, error) {
	if !store.Enabled(s.cfg.Store) {
		return nil, nil, errors.New("serve: distributed campaigns require a verdict store")
	}
	count := j.Req.shardCount()
	set := s.registerShards(j, count)
	defer s.unregisterShards(set)
	s.logf("serve: %s distributed across %d shard(s), lease %s", j.ID, count, s.cfg.shardLease())
	backstop := time.NewTimer(s.cfg.lease() + time.Second)
	defer backstop.Stop()
	select {
	case <-set.done:
	case <-backstop.C:
		return nil, nil, fmt.Errorf("serve: %s: shards incomplete after %s — are any workers connected?", j.ID, s.cfg.lease())
	case <-s.stop:
		return nil, nil, errors.New("serve: shutdown during distributed campaign")
	}
	if msg := set.failure(); msg != "" {
		return nil, nil, fmt.Errorf("serve: %s: %s", j.ID, msg)
	}
	s.logf("serve: %s all %d shard(s) complete; merging warm from the store", j.ID, count)
	return s.runLocal(j)
}

// handleWorkLease hands one shard to an asking worker, 204 when no work is
// available.
func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	lease, ok := s.leaseShard(time.Now())
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

// handleShardDone applies a worker's completion report: 204 applied, 404
// unknown campaign, 400 malformed, 409 stale lease.
func (s *Server) handleShardDone(w http.ResponseWriter, r *http.Request) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed shard index " + r.PathValue("shard")})
		return
	}
	var d ShardDone
	if !decodeBody(w, r, "decoding completion", &d) {
		return
	}
	id := r.PathValue("id")
	set := s.shardSetOf(id)
	if set == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no distributed campaign " + id})
		return
	}
	switch err := set.complete(shard, d); {
	case errors.Is(err, errBadShard):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	case errors.Is(err, errStaleShard):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		if d.Error != "" {
			s.logf("serve: %s shard %d reported failure: %s", id, shard, d.Error)
		} else {
			s.logf("serve: %s shard %d complete", id, shard)
		}
		w.WriteHeader(http.StatusNoContent)
	}
}
