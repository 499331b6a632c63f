// Distributed campaigns, coordinator side. A distributed job's mutants are
// split into shards by their deterministic enumeration index; remote
// `concat work` processes lease shards over POST /work/lease, execute them
// with the same core mutation step the coordinator runs, publish every
// verdict into the shared verdict store, and report completion. Each shard
// is a child row of the job's attempt in the server's one lease table
// (lease.go): a worker that dies or wedges loses its lease, the shard is
// re-leased to the next worker that asks under a new table-wide epoch, and
// a completion carrying any other epoch — a reclaimed holder's, or one
// granted under an attempt the job lease has since retired — is refused.
//
// The merge is deterministic by construction: once every shard has
// landed, the coordinator runs the job's ordinary run step, warm against
// the store, where every mutant verdict replays as a cache hit. Because
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
	"time"

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

// leaseShard reclaims expired leases, then leases the first pending shard.
func (s *Server) leaseShard(now time.Time) (ShardLease, bool) {
	s.reclaim(now)
	lease, ok := s.leases.grantShard(now, s.cfg.shardLease())
	if !ok {
		return ShardLease{}, false
	}
	j, _ := s.Job(lease.Job)
	lease.Req = j.Req
	s.metrics.Inc("shard.leases", 1)
	s.logf("serve: %s shard %d/%d leased (epoch %d)", lease.Job, lease.Shard, lease.Shards, lease.Epoch)
	return lease, true
}

// awaitShards is a distributed attempt's prelude: open the attempt's shard
// rows and wait for workers to complete them. The merge is the attempt's
// ordinary run step, warm against the shared store. Retiring the attempt
// (its job lease concluded or reclaimed) retires the shards and wakes the
// wait, so a reclaimed attempt never outlives its lease here.
func (s *Server) awaitShards(j *Job) error {
	if !store.Enabled(s.cfg.Store) {
		return errors.New("serve: distributed campaigns require a verdict store")
	}
	count := j.Req.shardCount()
	sh, ok := s.leases.openShards(j.ID, count)
	if !ok {
		return fmt.Errorf("serve: %s: attempt no longer holds its lease", j.ID)
	}
	s.logf("serve: %s distributed across %d shard(s), lease %s", j.ID, count, s.cfg.shardLease())
	select {
	case <-sh.wake:
	case <-s.stop:
		return errors.New("serve: shutdown during distributed campaign")
	}
	if sh.failure != "" {
		return fmt.Errorf("serve: %s: %s", j.ID, sh.failure)
	}
	s.logf("serve: %s all %d shard(s) complete; merging warm from the store", j.ID, count)
	return nil
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
	switch err := s.leases.completeShard(id, shard, d); {
	case errors.Is(err, errNoShards):
		writeJSON(w, http.StatusNotFound, apiError{Error: "no distributed campaign " + id})
	case errors.Is(err, errBadShard):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	case errors.Is(err, errStaleShard):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	default:
		if d.Error != "" {
			s.logf("serve: %s shard %d reported failure: %s", id, shard, d.Error)
		} else {
			s.logf("serve: %s shard %d complete", id, shard)
		}
		w.WriteHeader(http.StatusNoContent)
	}
}
