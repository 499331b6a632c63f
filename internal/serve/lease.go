// The lease table: the one place the service decides who may conclude a
// piece of work. Every job has a row for its execution attempt; while a
// distributed attempt is open, each of its shards is a child row of that
// attempt. All rows follow the same protocol:
//
//   - grant: a pending row is leased under a fresh epoch token from one
//     table-wide counter (no two grants ever share a token), its attempts
//     are counted, and its deadline is set;
//   - conclude(token): succeeds exactly once, for the current holder;
//   - reclaim: a row past its deadline loses its token and goes back to
//     pending while attempts < the retry budget, otherwise it is exhausted.
//
// Retiring a job attempt — concluding it or reclaiming it — retires its
// shard rows in the same critical section, so a stale attempt's shard
// leases can neither be handed out again nor complete.

package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// rowState is a lease row's place in the protocol.
type rowState int

const (
	rowPending   rowState = iota // waiting for a grant
	rowLeased                    // held under a live token until its deadline
	rowDone                      // concluded for good
	rowExhausted                 // reclaimed or failed with the budget spent
)

// jobRow is the shard index of a job's own attempt row in a leaseKey.
const jobRow = -1

// leaseKey names one row: a job's attempt (shard jobRow) or one shard of it.
type leaseKey struct {
	job   string
	shard int
}

// Shard completion verdicts surfaced to the HTTP layer.
var (
	errNoShards   = errors.New("serve: no distributed campaign attempt with that id")
	errBadShard   = errors.New("serve: shard index out of range")
	errStaleShard = errors.New("serve: stale shard lease")
)

// leaseRow is one lease.
type leaseRow struct {
	state    rowState
	token    int // epoch of the latest grant; valid only while leased
	attempts int // grants so far, the live one included
	deadline time.Time
}

func (r *leaseRow) holds(token int) bool { return r.state == rowLeased && r.token == token }

func (r *leaseRow) expired(now time.Time) bool {
	return r.state == rowLeased && !now.Before(r.deadline)
}

// end takes the row out of the leased state: done, or — when the holder
// asks for another try, or lost the lease — pending while the budget lasts.
func (r *leaseRow) end(budget int, retry bool) {
	switch {
	case !retry:
		r.state = rowDone
	case r.attempts < budget:
		r.state = rowPending
	default:
		r.state = rowExhausted
	}
}

// shardRows are the child rows of one distributed attempt. wake is closed
// once every shard is done or the rows ended early with failure set; after
// that neither changes.
type shardRows struct {
	rows    []leaseRow
	undone  int
	failure string
	wake    chan struct{}
}

// jobLeases is one job's rows.
type jobLeases struct {
	id      string
	attempt leaseRow
	shards  *shardRows // the open attempt's shards; nil when none are open
}

// leaseTable holds every job's rows. All methods are safe for concurrent
// use.
type leaseTable struct {
	budget int // retry budget: attempts per row

	mu    sync.Mutex
	epoch int // the table-wide token counter
	jobs  map[string]*jobLeases
	order []*jobLeases // submission order: older jobs' shards lease first
}

func newLeaseTable(budget int) *leaseTable {
	return &leaseTable{budget: budget, jobs: map[string]*jobLeases{}}
}

// add registers a job's attempt row with the attempts it already spent (a
// replayed job keeps counting). A concluded job's row is done. Any other
// row is one whose holder is gone, so reclaim's rule places it: pending
// while attempts < budget, otherwise exhausted.
func (t *leaseTable) add(id string, attempts int, concluded bool) {
	jl := &jobLeases{id: id, attempt: leaseRow{attempts: attempts}}
	jl.attempt.end(t.budget, !concluded)
	t.mu.Lock()
	t.jobs[id] = jl
	t.order = append(t.order, jl)
	t.mu.Unlock()
}

// grantLocked leases r under the next table-wide token.
func (t *leaseTable) grantLocked(r *leaseRow, now time.Time, d time.Duration) int {
	t.epoch++
	r.state = rowLeased
	r.token = t.epoch
	r.attempts++
	r.deadline = now.Add(d)
	return t.epoch
}

// grant leases the job's pending attempt row, returning the attempt's token
// and ordinal.
func (t *leaseTable) grant(id string, now time.Time, d time.Duration) (token, attempt int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jl := t.jobs[id]
	if jl == nil || jl.attempt.state != rowPending {
		return 0, 0, false
	}
	token = t.grantLocked(&jl.attempt, now, d)
	return token, jl.attempt.attempts, true
}

// conclude ends the attempt of a registered job held under token: done,
// or with retry set pending-or-exhausted. It reports the row's state
// afterwards and whether token was the current holder's; a reclaimed
// attempt's token never concludes.
func (t *leaseTable) conclude(id string, token int, retry bool) (rowState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jl := t.jobs[id]
	if !jl.attempt.holds(token) {
		return jl.attempt.state, false
	}
	jl.attempt.end(t.budget, retry)
	jl.retireShards("attempt concluded")
	return jl.attempt.state, true
}

// reclaim applies the deadline rule to every row and returns the keys of
// the rows it took back. A reclaimed attempt retires its shards; a shard
// reclaimed with its budget spent ends its attempt's shards early.
func (t *leaseTable) reclaim(now time.Time) []leaseKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []leaseKey
	for _, jl := range t.order {
		if jl.attempt.expired(now) {
			jl.attempt.end(t.budget, true)
			jl.retireShards("attempt reclaimed")
			keys = append(keys, leaseKey{jl.id, jobRow})
			continue
		}
		sh := jl.shards
		if sh == nil {
			continue
		}
		for i := range sh.rows {
			r := &sh.rows[i]
			if !r.expired(now) {
				continue
			}
			r.end(t.budget, true)
			keys = append(keys, leaseKey{jl.id, i})
			if r.state == rowExhausted {
				jl.retireShards(fmt.Sprintf("shard %d/%d abandoned after %d attempts", i, len(sh.rows), r.attempts))
				break
			}
		}
	}
	return keys
}

// retireShards closes the job's open shard rows, waking their attempt with
// failure unless every shard was already done. Callers hold the table lock.
func (jl *jobLeases) retireShards(failure string) {
	if sh := jl.shards; sh != nil {
		if sh.undone > 0 {
			sh.failure = failure
			close(sh.wake)
		}
		jl.shards = nil
	}
}

// row returns a copy of the job's attempt row (zero for an unknown job).
func (t *leaseTable) row(id string) leaseRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	if jl := t.jobs[id]; jl != nil {
		return jl.attempt
	}
	return leaseRow{}
}

// openShards opens n pending shard rows under the job's live attempt, or
// joins the ones it already opened. ok is false when no attempt is live.
func (t *leaseTable) openShards(id string, n int) (*shardRows, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jl := t.jobs[id]
	if jl == nil || jl.attempt.state != rowLeased {
		return nil, false
	}
	if jl.shards == nil {
		jl.shards = &shardRows{rows: make([]leaseRow, n), undone: n, wake: make(chan struct{})}
	}
	return jl.shards, true
}

// grantShard leases the first pending shard row, scanning jobs in
// submission order. The returned lease carries no Req; the server fills it.
func (t *leaseTable) grantShard(now time.Time, d time.Duration) (ShardLease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, jl := range t.order {
		if jl.shards == nil {
			continue
		}
		for i := range jl.shards.rows {
			if r := &jl.shards.rows[i]; r.state == rowPending {
				epoch := t.grantLocked(r, now, d)
				return ShardLease{Job: jl.id, Shard: i, Shards: len(jl.shards.rows), Epoch: epoch}, true
			}
		}
	}
	return ShardLease{}, false
}

// completeShard concludes a shard lease by (job, shard, epoch). A reported
// failure sends the shard back to pending while its budget lasts; spending
// the budget ends the attempt's shards early.
func (t *leaseTable) completeShard(id string, shard int, d ShardDone) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	jl := t.jobs[id]
	if jl == nil || jl.shards == nil {
		return errNoShards
	}
	sh := jl.shards
	if shard < 0 || shard >= len(sh.rows) {
		return errBadShard
	}
	r := &sh.rows[shard]
	if !r.holds(d.Epoch) {
		return errStaleShard
	}
	r.end(t.budget, d.Error != "")
	switch r.state {
	case rowDone:
		if sh.undone--; sh.undone == 0 {
			close(sh.wake)
		}
	case rowExhausted:
		jl.retireShards(fmt.Sprintf("shard %d/%d failed after %d attempts: %s", shard, len(sh.rows), r.attempts, d.Error))
	}
	return nil
}

// progress reports the open attempt's completed and total shards (0/0 when
// none are open).
func (t *leaseTable) progress(id string) (done, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if jl := t.jobs[id]; jl != nil && jl.shards != nil {
		return len(jl.shards.rows) - jl.shards.undone, len(jl.shards.rows)
	}
	return 0, 0
}
