// Package serve exposes mutation campaigns as a long-running HTTP/JSON
// service: submit a campaign, poll its status, stream its trace live as
// NDJSON, and fetch the finished report. It is the "components with
// built-in test capabilities as infrastructure" reading of the paper — the
// same analysis the `concat mutate` subcommand runs once, kept resident
// behind a bounded job queue and a worker pool, with the content-addressed
// verdict store (internal/store) making warm resubmissions re-execute only
// mutants whose inputs changed.
//
// The service is crash-safe end to end. Submissions are written ahead to a
// durable job journal (canonical JSON, temp+rename+fsync) before they
// become runnable, so a process death at any point — including SIGKILL
// between the journal append and execution — replays every pending and
// running campaign on restart, where warm verdict-store hits make the
// replay cheap and byte-identical. Every job has one lifecycle, whatever
// its kind (local, distributed or impact). Each execution attempt holds a
// lease in the server's one lease table (lease.go), as does each shard of a
// distributed attempt. A lease is a row with a table-wide epoch token, one
// concluder and one reclaim rule. A worker that panics, wedges past the
// lease, or dies mid-campaign has its job reclaimed and retried with
// deterministic capped exponential backoff (sandbox.Retry semantics), and a
// poison job that keeps failing is quarantined after its attempt budget
// instead of crash-looping forever. Every attempt yields one outcome
// (report, coverage, impact artifact, status counts), and the job stores it
// only after the attempt wins its conclusion.
// Drain stops admission with an accurate Retry-After and lets in-flight
// jobs finish before shutdown. The chaos kit (internal/serve/chaos) injects
// every one of those faults in regression tests.
//
// The service deliberately reuses the deterministic campaign machinery
// unchanged: a report fetched over HTTP is the table the CLI prints for the
// same request plus one coverage-summary line, the coverage artifact it
// stores is byte-identical to what the CLI writes, and the streamed trace
// validates against the obs span schema. A live /metrics endpoint renders
// the server's obs.Metrics (campaign counters, kill-latency histograms,
// recovery counters such as journal replays, lease reclaims, retries and
// quarantines) plus scrape-time gauges in the Prometheus text format, and
// net/http/pprof can be mounted behind a flag.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/obs"
	"concat/internal/sandbox"
	"concat/internal/serve/chaos"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
	"concat/internal/tspec"
)

// Version identifies this build of the campaign service on the
// concat_build_info metric and in client User-Agent strings.
const Version = "0.10.0"

// ErrQueueFull is returned by Submit when the pending-campaign queue is at
// capacity; the HTTP layer maps it to 503 Service Unavailable with a
// Retry-After computed from the queue depth and recent job durations.
var ErrQueueFull = errors.New("serve: campaign queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrDraining is returned by Submit while the server drains toward
// shutdown: admission is closed but in-flight jobs are still finishing. The
// HTTP layer maps it to 503 with Retry-After, same as a full queue.
var ErrDraining = errors.New("serve: draining, not accepting campaigns")

// Request is a campaign submission: which built-in component to mutate and
// how to generate its suite. The zero values of the generation knobs mean
// the CLI defaults (seed 42, no expansion, alternative cap 4, loop bound 1),
// so `{"component": "Account"}` is a complete request.
type Request struct {
	Component string   `json:"component"`
	Methods   []string `json:"methods,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Expand    bool     `json:"expand,omitempty"`
	Alt       int      `json:"alt,omitempty"`
	LoopBound int      `json:"loopBound,omitempty"`
	// Isolate runs every case in a crash-contained child process. It needs
	// the serving binary to double as the case server (concat does), so it
	// is off by default.
	Isolate bool `json:"isolate,omitempty"`
	// Pool runs the campaign on a pool of warm worker processes with
	// batched case dispatch instead of one spawn per case — same crash
	// containment, amortized process cost. Wins over Isolate when both
	// are set.
	Pool bool `json:"pool,omitempty"`
	// PoolSize bounds the warm worker pool (0 = the server's parallelism).
	PoolSize int `json:"poolSize,omitempty"`
	// Distributed splits the campaign's mutants into shards leased to
	// remote `concat work` processes over /work/lease; the coordinator
	// merges by re-running warm against the shared verdict store, so the
	// report and coverage artifact are byte-identical to a single-process
	// run. Requires the server to have a store configured.
	Distributed bool `json:"distributed,omitempty"`
	// Shards is the shard count of a distributed campaign (default 2).
	Shards int `json:"shards,omitempty"`
	// OldSpec/NewSpec, both present, make this an impact submission
	// (POST /impact): instead of a mutation campaign the job diffs the two
	// t-spec revisions (canonical JSON wire form, `concat spec` output),
	// re-executes only the cases the edit invalidated, and replays the rest
	// warm from the server's store. Impact jobs cannot be distributed.
	OldSpec json.RawMessage `json:"oldSpec,omitempty"`
	NewSpec json.RawMessage `json:"newSpec,omitempty"`
}

// Impact reports whether the request is an impact submission.
func (r Request) Impact() bool {
	return len(r.OldSpec) > 0 && len(r.NewSpec) > 0
}

// impactSpecs parses an impact submission's spec revisions and checks the
// new one names the requested component.
func (r Request) impactSpecs() (oldSpec, newSpec *tspec.Spec, err error) {
	oldSpec, err = tspec.LoadJSON(bytes.NewReader(r.OldSpec))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: old spec: %w", err)
	}
	newSpec, err = tspec.LoadJSON(bytes.NewReader(r.NewSpec))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: new spec: %w", err)
	}
	if newSpec.Class.Name != r.Component {
		return nil, nil, fmt.Errorf("serve: new spec is for %q but the request names %q",
			newSpec.Class.Name, r.Component)
	}
	return oldSpec, newSpec, nil
}

// genOptions resolves the request's generation knobs to driver options.
func (r Request) genOptions() driver.Options {
	seed := r.Seed
	if seed == 0 {
		seed = 42
	}
	alt := r.Alt
	if alt == 0 {
		alt = 4
	}
	lb := r.LoopBound
	if lb == 0 {
		lb = 1
	}
	return driver.Options{
		Seed:               seed,
		ExpandAlternatives: r.Expand,
		MaxAlternatives:    alt,
		Enum:               tfm.EnumOptions{LoopBound: lb},
	}
}

// execOptions resolves the request's execution knobs. Both the
// coordinator's run step and remote shard workers build from this same
// base, and everything layered on top afterwards (tracing, metrics,
// parallelism) is determinism-neutral and outside the verdict-store
// fingerprint — which is what lets a worker's cache keys match the
// coordinator's exactly.
func (r Request) execOptions() testexec.Options {
	var o testexec.Options
	if r.Pool {
		o.Isolation = testexec.IsolatePool
		o.PoolSize = r.PoolSize
	} else if r.Isolate {
		o.Isolation = testexec.IsolateSubprocess
	}
	return o
}

// shardCount resolves the shard count of a distributed request.
func (r Request) shardCount() int {
	if r.Shards > 0 {
		return r.Shards
	}
	return 2
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateQuarantined marks a poison job: every attempt in its retry
	// budget crashed or wedged, so the service parked it instead of
	// crash-looping. Quarantined jobs are terminal and keep their last
	// failure cause in Error.
	StateQuarantined = "quarantined"
)

// jobStates lists every state for gauge exposition, lifecycle order.
var jobStates = []string{StateQueued, StateRunning, StateDone, StateFailed, StateQuarantined}

// Job is one submitted campaign. Its trace broadcast fills while the
// campaign runs and closes when it finishes, so any number of HTTP clients
// can replay or follow the NDJSON span stream.
type Job struct {
	ID  string
	Req Request

	// seq is the numeric suffix of ID, journaled so replayed servers keep
	// allocating IDs after the highest seen.
	seq int
	// leases is the server's lease table, which owns the job's attempts.
	leases *leaseTable

	mu     sync.Mutex
	state  string
	errMsg string
	// out is the campaign's outcome, stored once the job is done.
	out outcome
	// enqueuedAt is when the job last entered the queued state, feeding
	// the queue-age gauge. Wall-clock; never journaled.
	enqueuedAt time.Time

	trace *obs.Broadcast
	done  chan struct{}
}

// outcome is what one campaign attempt produces, for every job kind
// (local, distributed, impact): the report bytes, the coverage summary and
// canonical artifact, the canonical impact artifact (impact jobs only), and
// the Status counts.
type outcome struct {
	report   []byte
	coverage *cover.SuiteCoverage
	artifact []byte
	impact   []byte
	counts   Status
}

// setState moves a live job to queued or running; queued stamps the
// queue-age clock.
func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	if state == StateQueued {
		j.enqueuedAt = time.Now()
	}
	j.mu.Unlock()
}

// queueState returns the job's state and, while it is queued, when it
// entered the queue (zero otherwise) — what /metrics reads of every job,
// without building a full Status.
func (j *Job) queueState() (state string, queuedAt time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return j.state, time.Time{}
	}
	return j.state, j.enqueuedAt
}

// finish moves the job to a terminal state — done with its outcome, or
// failed/quarantined with msg — and releases waiters.
func (j *Job) finish(state string, out outcome, msg string) {
	j.mu.Lock()
	j.state = state
	j.out = out
	j.errMsg = msg
	j.mu.Unlock()
	// Close the trace stream before publishing the verdict so a client that
	// saw "done" never blocks on a still-open stream.
	j.trace.Close()
	close(j.done)
}

// Attempts returns how many execution attempts have begun.
func (j *Job) Attempts() int { return j.leases.row(j.ID).attempts }

// coverage returns the job's suite coverage (nil until the campaign
// finished).
func (j *Job) coverage() *cover.SuiteCoverage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out.coverage
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Trace returns the job's NDJSON trace broadcast.
func (j *Job) Trace() *obs.Broadcast { return j.trace }

// record snapshots the job as its durable journal form. Terminal done
// records embed the report and coverage artifact bytes so a restarted
// server keeps serving them verbatim.
func (j *Job) record() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := JobRecord{
		Seq:      j.seq,
		ID:       j.ID,
		Req:      j.Req,
		State:    j.state,
		Attempts: j.leases.row(j.ID).attempts,
		Error:    j.errMsg,
	}
	if j.state == StateDone {
		rec.Report = j.out.report
		rec.Artifact = j.out.artifact
		rec.Impact = j.out.impact
		st := j.statusLocked()
		rec.Summary = &st
	}
	return rec
}

// Status is the wire form of a job's state.
type Status struct {
	ID          string `json:"id"`
	Component   string `json:"component"`
	State       string `json:"state"`
	Attempts    int    `json:"attempts,omitempty"`
	Mutants     int    `json:"mutants"`
	Killed      int    `json:"killed"`
	Equivalent  int    `json:"equivalent"`
	Survivors   int    `json:"survivors"`
	CacheHits   int    `json:"cacheHits"`
	CacheMisses int    `json:"cacheMisses"`
	// Kept/Rerun/Regenerated are an impact job's case-partition counts
	// (POST /impact); all zero for mutation campaigns.
	Kept        int `json:"kept,omitempty"`
	Rerun       int `json:"rerun,omitempty"`
	Regenerated int `json:"regenerated,omitempty"`
	// Coverage is the campaign's one-line coverage summary ("coverage:
	// transactions 4/4 (100.0%), ..."), present once the campaign finished.
	Coverage string `json:"coverage,omitempty"`
	Error    string `json:"error,omitempty"`
	// Shards/ShardsDone report a running distributed campaign's shard
	// progress; both zero for local campaigns and once the job is terminal.
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shardsDone,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := j.out.counts
	st.ID, st.Component, st.State, st.Error = j.ID, j.Req.Component, j.state, j.errMsg
	st.Attempts = j.leases.row(j.ID).attempts
	st.ShardsDone, st.Shards = j.leases.progress(j.ID)
	return st
}

// Config tunes the campaign service.
type Config struct {
	// Store, when enabled, is the shared verdict cache threaded into every
	// campaign, making warm resubmissions re-execute only changed mutants.
	// Any store.Backend works; a RawBackend additionally gets the
	// remote-store endpoints (/store/{id}) mounted on the handler so
	// remote workers can share this node's cache. Distributed campaigns
	// require an enabled store.
	Store store.Backend
	// Journal, when non-nil, is the write-ahead job journal: submissions
	// are journaled before they become runnable, every state transition is
	// recorded, and New replays pending/running records into the queue.
	Journal *Journal
	// QueueDepth bounds the pending campaigns (default 16). A full queue
	// rejects submissions with ErrQueueFull instead of blocking or growing.
	QueueDepth int
	// Workers is the number of campaigns running concurrently (default 1).
	Workers int
	// Parallelism is the per-campaign mutant-worker count (0 = GOMAXPROCS).
	Parallelism int
	// Retry bounds execution attempts per job, reusing the sandbox's
	// deterministic jitter-free policy: Attempts total attempts before the
	// job is quarantined (default 3, i.e. two retries), BaseDelay/MaxDelay
	// the capped exponential backoff between them (default 100ms/5s).
	Retry sandbox.RetryPolicy
	// Lease bounds one execution attempt (default DefaultLease). An attempt
	// still running past its lease is presumed wedged: the job is reclaimed
	// and retried, the attempt's shard leases are retired with it, and the
	// stale attempt's eventual result is discarded.
	Lease time.Duration
	// ShardLease bounds one worker's lease on one shard of a distributed
	// campaign (default DefaultShardLease). A shard not completed within
	// its lease is reclaimed and re-leased to the next worker that asks,
	// with the stale worker's late completion rejected by epoch.
	ShardLease time.Duration
	// TraceBuffer caps each job's retained NDJSON trace replay buffer in
	// bytes (0 = the 16 MiB default, negative = unbounded). A client that
	// subscribes after the cap dropped data receives an explicit truncation
	// marker before the retained suffix.
	TraceBuffer int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the handler.
	// Off by default: profiling endpoints are opt-in surface.
	EnablePprof bool
	// AccessLog, when non-nil, receives one NDJSON line per completed HTTP
	// request (AccessLogEntry schema): request ID, method, route pattern,
	// status, bytes, latency. A side channel with the tracing determinism
	// bar — logged and unlogged requests produce byte-identical campaign
	// results.
	AccessLog io.Writer
	// Faults is the chaos kit's injection surface; nil in production.
	Faults *chaos.Faults
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

// DefaultTraceBuffer is the per-job trace retention cap when Config leaves
// TraceBuffer zero.
const DefaultTraceBuffer = 16 << 20

// DefaultLease bounds one execution attempt when Config leaves Lease zero.
const DefaultLease = 5 * time.Minute

// traceCap resolves Config.TraceBuffer to a Broadcast cap.
func (c Config) traceCap() int {
	switch {
	case c.TraceBuffer > 0:
		return c.TraceBuffer
	case c.TraceBuffer < 0:
		return 0 // unbounded
	default:
		return DefaultTraceBuffer
	}
}

// retryPolicy resolves Config.Retry to its defaults.
func (c Config) retryPolicy() sandbox.RetryPolicy {
	p := c.Retry
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// lease resolves Config.Lease to its default.
func (c Config) lease() time.Duration {
	if c.Lease > 0 {
		return c.Lease
	}
	return DefaultLease
}

// shardLease resolves Config.ShardLease to its default.
func (c Config) shardLease() time.Duration {
	if c.ShardLease > 0 {
		return c.ShardLease
	}
	return DefaultShardLease
}

// backoffDelay is the deterministic capped exponential backoff slept before
// re-enqueueing a job whose attempt'th try failed — sandbox.Retry's
// jitter-free doubling, applied at the job level.
func backoffDelay(p sandbox.RetryPolicy, attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d > p.MaxDelay {
			return p.MaxDelay
		}
	}
	return d
}

// recentDurations bounds the completed-job duration ring feeding the
// Retry-After estimate.
const recentDurations = 32

// Server is the campaign service: a bounded job queue drained by a worker
// pool, with every job's state, report and trace retained for the
// process's lifetime — and, with a journal configured, across process
// lifetimes.
type Server struct {
	cfg     Config
	queue   chan *Job
	stop    chan struct{}
	stopped sync.Once
	metrics *obs.Metrics
	journal *Journal
	wg      sync.WaitGroup

	// ready is closed once the journal replay completed and the server
	// accepts work; /readyz answers 503 until then. New closes it before
	// returning; NewStarting closes it from the background start goroutine.
	ready chan struct{}

	// store is the verdict backend the campaign paths actually use: the
	// configured Config.Store wrapped with read-path timing when enabled.
	// Config.Store keeps its original dynamic type for the RawBackend
	// /store mount and Enabled checks.
	store store.Backend

	// HTTP observability (middleware.go). inFlight and busy are read
	// into gauges when /metrics is scraped.
	nRequests atomic.Int64 // per-request ID allocator
	inFlight  atomic.Int64 // requests currently being served
	busy      atomic.Int64 // workers currently executing a job
	accessLog *accessLogger
	subMu     sync.Mutex
	subs      map[*subscriber]struct{}

	// leases is the one lease table: every job's attempt row and the shard
	// rows of open distributed attempts (lease.go).
	leases *leaseTable

	// campaign executes one job attempt; tests substitute a stub to pin
	// workers at a controlled point. Set before the first Submit.
	campaign func(*Job) (outcome, error)

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	queued   int // jobs occupying admission (queue) slots
	active   int // jobs in any non-terminal state
	closed   bool
	draining bool
	durs     []time.Duration // ring of recent completed-job durations
	durIdx   int
}

// New starts the worker pool, replays the journal, and returns the server
// ready to accept work. With a journal configured the replay restores
// terminal jobs verbatim (report, artifact, status) and reclaims queued or
// running jobs — running means the previous process died mid-campaign —
// into the queue to execute again, warm against the store.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

// NewStarting returns the server immediately and runs the journal replay in
// the background — the daemon path: the HTTP listener can come up at once,
// with /readyz answering 503 until the replay completes and every Submit
// blocking for readiness so job IDs stay sequential across restarts.
func NewStarting(cfg Config) *Server {
	s := newServer(cfg)
	go s.start()
	return s
}

// newServer builds the server without starting it: no journal replay has
// run and the ready channel is still open.
func newServer(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Server{
		cfg:     cfg,
		metrics: obs.NewMetrics(),
		journal: cfg.Journal,
		leases:  newLeaseTable(cfg.retryPolicy().Attempts),
		jobs:    map[string]*Job{},
		ready:   make(chan struct{}),
	}
	// The recovery, shard and impact counters start at zero, so /metrics
	// shows them from process start and absence never reads as zero.
	for _, name := range []string{
		"journal.replayed", "journal.corrupt", "lease.reclaims", "job.retries", "jobs.quarantined",
		"shard.leases", "shard.reclaims", "impact.kept", "impact.rerun", "impact.regenerated",
	} {
		s.metrics.Inc(name, 0)
	}
	s.campaign = s.runCampaign
	s.store = cfg.Store
	if store.Enabled(cfg.Store) {
		s.store = &timedStore{inner: cfg.Store, metrics: s.metrics}
	}
	if cfg.AccessLog != nil {
		s.accessLog = &accessLogger{w: cfg.AccessLog}
	}
	if s.journal != nil {
		s.journal.Faults = cfg.Faults
	}
	// Channel headroom beyond the admission bound: one slot per worker and
	// retry re-enqueues never block the senders; the replay loop in start
	// may block on a deep journal, but the workers are already draining.
	s.queue = make(chan *Job, cfg.QueueDepth+cfg.Workers+8)
	s.stop = make(chan struct{})
	return s
}

// start spins up the workers, replays the journal into the queue, and
// marks the server ready. New runs it synchronously; NewStarting in a
// background goroutine, during which /readyz reports the server unready.
func (s *Server) start() {
	defer close(s.ready)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if f := s.cfg.Faults; f != nil && f.JournalReplay != nil {
		f.JournalReplay()
	}
	pending := s.replayJournal()
	for _, j := range pending {
		s.metrics.Inc("journal.replayed", 1)
		s.mu.Lock()
		s.active++
		s.mu.Unlock()
		if row := s.leases.row(j.ID); row.state == rowExhausted {
			s.settle(j, row.attempts, row.state, outcome{}, errors.New("the process exited mid-attempt"), 0)
			continue
		}
		s.mu.Lock()
		s.queued++
		s.mu.Unlock()
		j.setState(StateQueued)
		s.journalJob(j) // persist running -> queued reclaims
		s.logf("serve: %s replayed from journal (%s, attempts %d)", j.ID, j.Req.Component, j.Attempts())
		select {
		case s.queue <- j:
		case <-s.stop:
			return // still journaled queued; the next process replays it
		}
	}
}

// replayJournal loads the journal into the jobs map and returns the jobs
// that must run (again). Corrupt records were quarantined by Replay and
// only counted here.
func (s *Server) replayJournal() []*Job {
	recs, corrupt, err := s.journal.Replay()
	if err != nil {
		s.logf("serve: journal replay: %v", err)
		return nil
	}
	s.metrics.Inc("journal.corrupt", int64(corrupt))
	if corrupt > 0 {
		s.logf("serve: quarantined %d corrupt journal record(s)", corrupt)
	}
	var pending []*Job
	for _, rec := range recs {
		j := s.newJob(rec.Seq, rec.Req)
		terminal := rec.State == StateDone || rec.State == StateFailed || rec.State == StateQuarantined
		// A queued or running record's holder is gone: the table re-queues
		// it while the retry budget lasts. attempts keeps counting the
		// interrupted try, so a job that kills the process on every attempt
		// converges to quarantine instead of crash-looping the service.
		s.leases.add(j.ID, rec.Attempts, terminal)
		if terminal {
			out := outcome{report: rec.Report, artifact: rec.Artifact, impact: rec.Impact}
			if rec.Summary != nil {
				out.counts = *rec.Summary
			}
			if len(rec.Artifact) > 0 {
				if art, err := cover.Decode(rec.Artifact); err == nil {
					out.coverage = art.Suite
					out.counts.Coverage = art.Suite.Summary()
				}
			}
			j.finish(rec.State, out, rec.Error)
		} else {
			pending = append(pending, j)
		}
		// NewStarting replays with the HTTP surface already live, so the
		// jobs map mutates under the lock like everywhere else.
		s.mu.Lock()
		if rec.Seq > s.nextID {
			s.nextID = rec.Seq
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
	}
	return pending
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// journalJob appends the job's current state to the journal. Transition
// records after admission are best-effort: losing one means a restart
// replays from an earlier state, which the warm store makes cheap and
// byte-identical; refusing to proceed would trade availability for nothing.
func (s *Server) journalJob(j *Job) {
	if err := s.journal.Append(j.record()); err != nil {
		s.logf("serve: journaling %s: %v", j.ID, err)
	}
}

// newJob builds job c<seq> in the queued state.
func (s *Server) newJob(seq int, req Request) *Job {
	return &Job{
		ID:         fmt.Sprintf("c%d", seq),
		seq:        seq,
		Req:        req,
		leases:     s.leases,
		state:      StateQueued,
		enqueuedAt: time.Now(),
		trace:      obs.NewBroadcastCapped(s.cfg.traceCap()),
		done:       make(chan struct{}),
	}
}

// Submit validates and enqueues a campaign. Job IDs are sequential (c1,
// c2, ...) in submission order — across restarts when a journal is
// configured, so a deterministic client script addresses deterministic
// IDs. The queued record is journaled before the job becomes runnable:
// once Submit returns, the campaign survives any process death.
func (s *Server) Submit(req Request) (*Job, error) {
	if req.Component == "" {
		return nil, errors.New("serve: request needs a component")
	}
	if _, err := core.LookupTarget(req.Component); err != nil {
		return nil, err
	}
	if req.Shards < 0 || req.Alt < 0 || req.LoopBound < 0 || req.PoolSize < 0 {
		return nil, fmt.Errorf("serve: negative shards/alt/loopBound/poolSize %d/%d/%d/%d",
			req.Shards, req.Alt, req.LoopBound, req.PoolSize)
	}
	if req.Distributed && !store.Enabled(s.cfg.Store) {
		return nil, errors.New("serve: distributed campaigns require a verdict store (start the coordinator with a cache directory)")
	}
	if (len(req.OldSpec) > 0) != (len(req.NewSpec) > 0) {
		return nil, errors.New("serve: impact submissions need both oldSpec and newSpec")
	}
	if req.Impact() {
		if req.Distributed {
			return nil, errors.New("serve: impact analysis cannot be distributed")
		}
		// Reject unparseable or mismatched specs at admission: running them
		// could only fail deterministically.
		if _, _, err := req.impactSpecs(); err != nil {
			return nil, err
		}
	}
	// Admission waits for the journal replay so job IDs stay sequential
	// across restarts even when the daemon took submissions while starting.
	select {
	case <-s.ready:
	case <-s.stop:
		return nil, ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.draining {
		return nil, ErrDraining
	}
	if s.queued >= s.cfg.QueueDepth {
		return nil, ErrQueueFull
	}
	seq := s.nextID + 1
	j := s.newJob(seq, req)
	// Write-ahead: the journal append precedes every other effect. A
	// submission the journal cannot make durable is refused outright.
	if err := s.journal.Append(j.record()); err != nil {
		return nil, err
	}
	chaos.Kill(chaos.PointSubmitJournaled)
	s.leases.add(j.ID, 0, false)
	s.nextID = seq
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queued++
	s.active++
	select {
	case s.queue <- j:
	default:
		// Unreachable while admission holds queued below QueueDepth and the
		// channel keeps headroom beyond it; never block under the lock.
		go func() {
			select {
			case s.queue <- j:
			case <-s.stop:
			}
		}()
	}
	s.logf("serve: %s queued (%s)", j.ID, req.Component)
	return j, nil
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Close stops accepting submissions, waits for every admitted job to reach
// a terminal state (the retry budget bounds that wait even for poison
// jobs), then stops the workers.
func (s *Server) Close() {
	s.shutdown(true)
}

// Drain is the graceful-shutdown path: stop admission (Submit returns
// ErrDraining, the HTTP layer 503 + Retry-After), wait up to timeout for
// in-flight and queued jobs to finish, write the journal checkpoint, and
// stop the workers. It reports whether the queue fully quiesced; jobs
// still queued or running past the deadline stay journaled in those states
// and replay on the next start.
func (s *Server) Drain(timeout time.Duration) bool {
	<-s.ready // never checkpoint mid-replay
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logf("serve: draining (timeout %s)", timeout)
	drained := s.waitIdle(time.Now().Add(timeout))
	s.mu.Lock()
	active := s.active
	s.mu.Unlock()
	if err := s.journal.Checkpoint(Checkpoint{Clean: drained, Active: active}); err != nil {
		s.logf("serve: checkpoint: %v", err)
	}
	s.shutdown(false)
	if drained {
		s.logf("serve: drained cleanly")
	} else {
		s.logf("serve: drain deadline passed with %d active job(s); they will replay from the journal", active)
	}
	return drained
}

func (s *Server) shutdown(waitIdle bool) {
	// Wait out a background start: every worker is registered on the wait
	// group and the replay has finished enqueueing before stop closes.
	<-s.ready
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if waitIdle && !alreadyClosed {
		s.waitIdle(time.Time{})
	}
	s.stopped.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// waitIdle polls until no job is in a non-terminal state, or the deadline
// (zero = none) passes.
func (s *Server) waitIdle(deadline time.Time) bool {
	for {
		s.mu.Lock()
		idle := s.active == 0
		s.mu.Unlock()
		if idle {
			return true
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordDuration feeds the completed-job duration ring for Retry-After.
func (s *Server) recordDuration(d time.Duration) {
	s.mu.Lock()
	if len(s.durs) < recentDurations {
		s.durs = append(s.durs, d)
	} else {
		s.durs[s.durIdx%recentDurations] = d
	}
	s.durIdx++
	s.mu.Unlock()
}

// maxRetryAfterSeconds caps the Retry-After estimate: past five minutes
// the number is a queue-health signal, not a schedule, and a well-behaved
// client honoring a multi-hour value would effectively never retry.
const maxRetryAfterSeconds = 300

// retryAfterSeconds estimates when a rejected client should retry: the
// current queue depth times the mean recent job duration, divided across
// the workers, floored at one second and capped at maxRetryAfterSeconds.
// With no completed jobs yet the floor is the estimate.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	mean := time.Second
	if len(s.durs) > 0 {
		var sum time.Duration
		for _, d := range s.durs {
			sum += d
		}
		mean = sum / time.Duration(len(s.durs))
	}
	pending := s.queued
	// Compare before converting: a deep queue of slow campaigns can push
	// the float estimate past integer range.
	estimate := math.Ceil(float64(pending) * mean.Seconds() / float64(s.cfg.Workers))
	if estimate >= maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	secs := int(estimate)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// worker drains the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			// A closed stop channel and a non-empty queue race in this
			// select; once shutdown has begun no new attempt may start, or
			// a hard drain would journal a fresh "running" record after the
			// checkpoint. The job stays journaled as queued and replays.
			select {
			case <-s.stop:
				return
			default:
			}
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			s.runJob(j)
		}
	}
}

// attemptResult is one attempt's result, shipped from the campaign
// goroutine to the lease-holding worker.
type attemptResult struct {
	out      outcome
	err      error
	panicked bool
}

// runJob executes one lease-bounded attempt of the job: take the job's
// lease, journal the running state, run the campaign in a goroutine the
// worker can abandon, and conclude with exactly one of done / failed /
// retry / quarantine. A wedged campaign loses its lease to reclaim and its
// late result is discarded; a panicking campaign is contained and retried;
// shutdown mid-attempt leaves the job journaled as running for the next
// process to reclaim.
func (s *Server) runJob(j *Job) {
	s.busy.Add(1)
	defer s.busy.Add(-1)
	token, attempt, ok := s.leases.grant(j.ID, time.Now(), s.cfg.lease())
	if !ok {
		// Only a queued job's row is pending; a second copy in the queue
		// would be a bug, and must not start a second attempt.
		s.logf("serve: %s dequeued without a pending lease row", j.ID)
		return
	}
	j.setState(StateRunning)
	s.logf("serve: %s running (attempt %d)", j.ID, attempt)
	s.journalJob(j)
	chaos.Kill(chaos.PointJobRunning)
	start := time.Now()
	ch := make(chan attemptResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- attemptResult{err: fmt.Errorf("worker panic: %v", r), panicked: true}
			}
		}()
		if f := s.cfg.Faults; f != nil && f.CampaignStart != nil {
			f.CampaignStart(j.ID, attempt)
		}
		out, err := s.campaign(j)
		ch <- attemptResult{out: out, err: err}
	}()
	leaseLost := fmt.Errorf("lease expired after %s", s.cfg.lease())
	lease := time.NewTimer(s.cfg.lease())
	defer lease.Stop()
	select {
	case r := <-ch:
		retry := r.err != nil && (r.panicked || sandbox.Transient(r.err))
		state, won := s.leases.conclude(j.ID, token, retry)
		if !won {
			// A /work/lease scan reclaimed the attempt before it concluded.
			r.err = leaseLost
		}
		s.settle(j, attempt, state, r.out, r.err, time.Since(start))
	case <-lease.C:
		// Past the deadline, so reclaim takes the attempt back (unless a
		// /work/lease scan already did) and the stale result is discarded.
		s.reclaim(time.Now())
		s.settle(j, attempt, s.leases.row(j.ID).state, outcome{}, leaseLost, 0)
	case <-s.stop:
		// Shutdown mid-attempt: the job stays journaled as running and the
		// next process reclaims it.
	}
}

// reclaim applies the lease table's deadline rule to every row — the job
// lease timer and the /work/lease scan both call it — and counts what it
// took back.
func (s *Server) reclaim(now time.Time) {
	for _, k := range s.leases.reclaim(now) {
		if k.shard == jobRow {
			s.metrics.Inc("lease.reclaims", 1)
			s.logf("serve: %s attempt lease reclaimed", k.job)
		} else {
			s.metrics.Inc("shard.reclaims", 1)
			s.logf("serve: %s shard %d lease reclaimed", k.job, k.shard)
		}
	}
}

// settle follows up an ended attempt from the state the lease table left
// its row in. Pending re-queues the job after its deterministic backoff;
// exhausted quarantines it; done finishes it with the attempt's outcome,
// or fails it on a deterministic campaign error — retrying would fail the
// same way (sandbox.Retry's contract). A terminal job is journaled,
// retired from the active set and, unless quarantined, its duration feeds
// the Retry-After estimate.
func (s *Server) settle(j *Job, attempt int, row rowState, out outcome, err error, dur time.Duration) {
	state, msg := StateDone, ""
	switch {
	case row == rowPending:
		s.retry(j, attempt, err)
		return
	case row == rowExhausted:
		state, msg, out, dur = StateQuarantined, fmt.Sprintf("quarantined after %d attempts: %v", attempt, err), outcome{}, 0
		s.metrics.Inc("jobs.quarantined", 1)
	case err != nil:
		state, msg, out = StateFailed, err.Error(), outcome{}
	default:
		chaos.Kill(chaos.PointDonePrejournal)
	}
	j.finish(state, out, msg)
	s.metrics.Inc("job.outcome."+state, 1)
	s.journalJob(j)
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	if dur > 0 {
		s.recordDuration(dur)
	}
	if msg != "" {
		msg = ": " + msg
	}
	s.logf("serve: %s %s%s", j.ID, state, msg)
}

// retry re-queues the job after its deterministic backoff.
func (s *Server) retry(j *Job, attempt int, cause error) {
	p := s.cfg.retryPolicy()
	s.metrics.Inc("job.retries", 1)
	j.setState(StateQueued)
	s.journalJob(j)
	delay := backoffDelay(p, attempt)
	s.logf("serve: %s attempt %d failed (%v); retry %d/%d in %s", j.ID, attempt, cause, attempt+1, p.Attempts, delay)
	go func() {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.stop:
			return // still journaled queued; the next process replays it
		}
		s.mu.Lock()
		s.queued++
		s.mu.Unlock()
		select {
		case s.queue <- j:
		case <-s.stop:
		}
	}()
}

// runCampaign executes one job attempt of any kind: one run step, then one
// render step.
func (s *Server) runCampaign(j *Job) (outcome, error) {
	c, err := s.run(j)
	if err != nil {
		return outcome{}, err
	}
	return s.render(c)
}

// run runs the core step of the request's kind against the server's store,
// traced into the job's stream. A distributed campaign first waits for its
// shards (work.go); the mutation step then replays their verdicts warm.
func (s *Server) run(j *Job) (*core.Campaign, error) {
	if j.Req.Distributed {
		if err := s.awaitShards(j); err != nil {
			return nil, err
		}
	}
	t, err := core.LookupTarget(j.Req.Component)
	if err != nil {
		return nil, err
	}
	o := core.MutationOptions{Exec: j.Req.execOptions(), Parallelism: s.cfg.Parallelism, Store: s.store}
	o.Exec.Trace = obs.NewTracer(j.trace)
	o.Exec.Metrics = s.metrics
	var c *core.Campaign
	if j.Req.Impact() {
		var oldSpec, newSpec *tspec.Spec
		if oldSpec, newSpec, err = j.Req.impactSpecs(); err == nil {
			c, err = t.Impact(oldSpec, newSpec, j.Req.genOptions(), o)
		}
	} else {
		c, err = t.Mutate(j.Req.genOptions(), j.Req.Methods, nil, o)
	}
	if err != nil {
		return nil, err
	}
	return c, o.Exec.Trace.Err()
}

// render lays a finished campaign out as the job's outcome: the report is
// the text the CLI prints for the same campaign plus the coverage summary
// line, the artifact is the CLI's -cover bytes, and an impact run adds its
// canonical impact artifact and partition counts.
func (s *Server) render(c *core.Campaign) (outcome, error) {
	art, err := c.Coverage()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{coverage: art.Suite, counts: Status{Coverage: art.Suite.Summary()}}
	if out.artifact, err = art.Encode(); err != nil {
		return outcome{}, err
	}
	st := &out.counts
	var buf bytes.Buffer
	if res := c.Impact; res != nil {
		rep := res.Report
		st.Kept, st.Rerun, st.Regenerated = rep.Kept, rep.Rerun, rep.Regenerated
		st.CacheHits, st.CacheMisses = rep.CacheHits, rep.CacheMisses
		s.metrics.Inc("impact.kept", int64(rep.Kept))
		s.metrics.Inc("impact.rerun", int64(rep.Rerun))
		s.metrics.Inc("impact.regenerated", int64(rep.Regenerated))
		if out.impact, err = rep.Encode(); err == nil {
			err = res.Render(&buf)
		}
	} else {
		tab := c.Mutation.Tabulate()
		tot := tab.Total
		st.Mutants, st.Killed, st.Equivalent = tot.Mutants, tot.Killed, tot.Equivalent
		st.Survivors = tot.Mutants - tot.Killed - tot.Equivalent
		st.CacheHits, st.CacheMisses = c.Mutation.CacheHits, c.Mutation.CacheMisses
		err = tab.Render(&buf)
	}
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintln(&buf, st.Coverage)
	out.report = buf.Bytes()
	return out, nil
}

// Handler returns the HTTP API:
//
//	POST /campaigns            submit (JSON Request) -> 202 Status, 503 on full queue or drain
//	POST /impact               submit an impact analysis (Request with oldSpec/newSpec) -> 202 Status
//	GET  /campaigns            all statuses, submission order
//	GET  /campaigns/{id}       one status
//	GET  /campaigns/{id}/report   rendered table + coverage summary (blocks until done)
//	GET  /campaigns/{id}/coverage canonical coverage artifact JSON (blocks until done)
//	GET  /campaigns/{id}/impact   canonical impact artifact JSON (impact jobs; blocks until done)
//	GET  /campaigns/{id}/events   live NDJSON trace stream (replays from the start)
//	POST /work/lease           lease one shard of a distributed campaign (204 when none)
//	POST /work/{id}/shards/{shard} report a leased shard's completion
//	GET  /store/{id}           verdict-store entry document (RawBackend stores only)
//	PUT  /store/{id}           publish a verified entry document
//	GET  /store                store entry counts and lookup stats
//	GET  /metrics              Prometheus text-format metrics
//	GET  /healthz              liveness
//	GET  /readyz               readiness: 503 while starting (journal replay) or draining
//	     /debug/pprof/...      net/http/pprof (only with Config.EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every route registers through the RED middleware: the route label is
	// the registration pattern (bounded cardinality), and the handler runs
	// wrapped with the request counter, latency histogram, in-flight gauge,
	// request ID and access log (middleware.go).
	handle := func(method, route string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+route, s.instrument(route, h))
	}
	handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	handle("GET", "/readyz", s.handleReadyz)
	handle("POST", "/campaigns", s.handleSubmit)
	handle("POST", "/impact", s.handleImpact)
	handle("GET", "/campaigns", s.handleList)
	handle("GET", "/campaigns/{id}", s.handleStatus)
	handle("GET", "/campaigns/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		s.serveOutcome(w, r, "report", "text/plain; charset=utf-8", func(o outcome) []byte { return o.report })
	})
	handle("GET", "/campaigns/{id}/coverage", func(w http.ResponseWriter, r *http.Request) {
		s.serveOutcome(w, r, "coverage artifact", "application/json", func(o outcome) []byte { return o.artifact })
	})
	handle("GET", "/campaigns/{id}/impact", func(w http.ResponseWriter, r *http.Request) {
		s.serveOutcome(w, r, "impact artifact", "application/json", func(o outcome) []byte { return o.impact })
	})
	handle("GET", "/campaigns/{id}/events", s.handleEvents)
	handle("POST", "/work/lease", s.handleWorkLease)
	handle("POST", "/work/{id}/shards/{shard}", s.handleShardDone)
	if rb, ok := s.cfg.Store.(store.RawBackend); ok && store.Enabled(s.cfg.Store) {
		sh := store.NewHandler(rb)
		handle("GET", "/store", sh.ServeHTTP)
		handle("GET", "/store/{id}", sh.ServeHTTP)
		handle("PUT", "/store/{id}", sh.ServeHTTP)
	}
	handle("GET", "/metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Ready reports whether the server finished starting (journal replay
// complete) and is accepting work.
func (s *Server) Ready() bool {
	select {
	case <-s.ready:
	default:
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.closed
}

// handleReadyz is the readiness probe, distinct from /healthz liveness: a
// starting server (journal replay still running) and a draining one both
// answer 503 so load balancers route around them, while /healthz keeps
// reporting the process alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	select {
	case <-s.ready:
	default:
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting: journal replay in progress")
		return
	}
	s.mu.Lock()
	draining, closed := s.draining, s.closed
	s.mu.Unlock()
	if draining || closed {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// maxBodyBytes caps every POST body. The largest legitimate body, an
// impact submission carrying two t-spec documents, is tens of kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a POST body holding exactly one JSON value
// into v. An unknown field, anything but whitespace after the value, or
// malformed JSON answers 400; a body over maxBodyBytes answers 413. It
// reports whether v was decoded; when not, the response is written.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("%s: body over %d bytes", what, maxBodyBytes)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, apiError{Error: what + ": " + err.Error()})
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if decodeBody(w, r, "decoding request", &req) {
		s.submitAndRespond(w, req)
	}
}

// handleImpact admits an impact submission: the same Request wire form with
// oldSpec and newSpec present. A missing component defaults to the new
// spec's class, so posting just the two spec documents works.
func (s *Server) handleImpact(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, "decoding request", &req) {
		return
	}
	if len(req.OldSpec) == 0 || len(req.NewSpec) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "impact submissions need oldSpec and newSpec"})
		return
	}
	if req.Component == "" {
		spec, err := tspec.LoadJSON(bytes.NewReader(req.NewSpec))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "new spec: " + err.Error()})
			return
		}
		req.Component = spec.Class.Name
	}
	s.submitAndRespond(w, req)
}

// submitAndRespond runs Submit and maps its outcome onto the HTTP surface,
// shared by the campaign and impact submission handlers.
func (s *Server) submitAndRespond(w http.ResponseWriter, req Request) {
	j, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrJournal):
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	statuses := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such campaign " + r.PathValue("id")})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// serveOutcome blocks until the job finishes (or the client goes away) and
// serves one part of its outcome verbatim: the rendered report (the bytes
// `concat mutate` prints), the canonical coverage artifact (what `concat
// mutate -cover` writes) or the canonical impact artifact (what `concat
// impact -json` prints). A failed or quarantined job answers 500 with its
// cause, an absent part (mutation campaigns have no impact artifact) 404.
func (s *Server) serveOutcome(w http.ResponseWriter, r *http.Request, what, contentType string, part func(outcome) []byte) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		return
	}
	j.mu.Lock()
	state, msg, body := j.state, j.errMsg, part(j.out)
	j.mu.Unlock()
	switch {
	case state != StateDone:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: msg})
	case len(body) == 0:
		writeJSON(w, http.StatusNotFound, apiError{Error: "campaign " + j.ID + " has no " + what})
	default:
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(body)
	}
}

// handleMetrics renders the live Prometheus text surface from one
// obs.Metrics snapshot: the shared campaign metrics (outcome counters,
// kill-latency histograms, HTTP RED metrics), the recovery, shard and
// impact counters (registered at zero in newServer), plus the values read
// at scrape time — the verdict store's hit/miss/quarantine counters, build
// info, queue, drain, worker and subscriber gauges, jobs by state, and
// per-campaign transaction coverage for every finished job.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	stats := store.BackendStats(s.cfg.Store)
	snap.Counters["store.hits"] = int64(stats.Hits)
	snap.Counters["store.misses"] = int64(stats.Misses)
	snap.Counters["store.quarantined"] = int64(stats.Quarantined)

	s.mu.Lock()
	queued := s.queued
	draining := 0.0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	subCount, maxLag := s.subscriberStats()
	snap.Gauges = map[string]float64{
		obs.Labeled("build_info", "version", Version, "goversion", runtime.Version()): 1,
		"queue.depth":                float64(queued),
		"draining":                   draining,
		"http.in_flight":             float64(s.inFlight.Load()),
		"workers":                    float64(s.cfg.Workers),
		"workers.busy":               float64(s.busy.Load()),
		"events.subscribers":         float64(subCount),
		"events.broadcast_lag_bytes": float64(maxLag),
	}

	states := map[string]int{}
	var oldestQueued time.Duration
	for _, j := range s.Jobs() {
		state, queuedAt := j.queueState()
		states[state]++
		if sc := j.coverage(); sc != nil {
			snap.Gauges[obs.Labeled("campaign_transaction_coverage_ratio", "id", j.ID, "component", j.Req.Component)] =
				sc.TransactionPercent() / 100
		}
		if !queuedAt.IsZero() {
			oldestQueued = max(oldestQueued, time.Since(queuedAt))
		}
	}
	for _, state := range jobStates {
		snap.Gauges[obs.Labeled("jobs", "state", state)] = float64(states[state])
	}
	snap.Gauges["queue.oldest_age_seconds"] = oldestQueued.Seconds()

	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// handleEvents streams the job's trace as NDJSON: the full span history so
// far (with an explicit truncation marker when the retention cap dropped
// early lines), then live lines until the campaign ends or the client
// disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	// Flush the headers before waiting on the trace: a subscriber to a
	// just-submitted, still-quiet campaign must see the 200 and content
	// type immediately, not whenever the first span happens to land.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	sub, done := s.addSubscriber(j)
	defer done()
	off := 0
	for {
		chunk, next, more := j.trace.Next(off, r.Context().Done())
		if !more {
			return
		}
		off = next
		sub.off.Store(int64(next))
		if _, err := w.Write(chunk); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
