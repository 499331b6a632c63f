// The child-process path both isolation modes share: the case server
// (ServeCaseBatches) and the parent-side batch dispatcher (runPooled).
// Cases travel to worker processes in batches over length-prefixed NDJSON
// frames; every case executes against a freshly resolved component, and a
// worker's fatal death is classified from its exit status. What differs is
// the recycle policy. IsolateSubprocess sends one case per batch and
// discards the worker after it, so each case pays a fork+exec for a fresh
// process. IsolatePool amortizes that cost, which dominates a mutation
// campaign: workers stay warm across batches and are restarted only when
// one crashes, blows its deadline, or finishes a batch dirty (a timed-out
// case leaves an abandoned goroutine in the worker; reusing that address
// space would break the fresh-world guarantee). One warm worker also serves
// many mutants back to back: each batch frame carries its own isolation
// context, so a campaign re-arms mutants on the child side without any
// per-mutant provisioning — the mutant-schemata amortization.
package testexec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"concat/internal/bit"
	"concat/internal/driver"
	"concat/internal/fanout"
	"concat/internal/obs"
	"concat/internal/sandbox/pool"
)

// BatchServerValue is the ServerEnv value the executor sets when it spawns
// a case server. ServeFromEnv serves batches for any non-empty value.
const BatchServerValue = "batch"

// DefaultBatchSize is the number of cases dispatched per worker
// round-trip when Options.BatchSize is unset. Large enough to amortize a
// frame round-trip over real work, small enough that a mid-batch crash
// re-dispatches little.
const DefaultBatchSize = 16

// batchRequest is one parent-to-worker frame: the run-level knobs plus a
// slice of cases to execute in order. The per-batch Context lets one warm
// worker serve many mutants — each batch re-arms its own.
type batchRequest struct {
	Component           string          `json:"component"`
	SkipInvariantChecks bool            `json:"skipInvariantChecks,omitempty"`
	SkipReporter        bool            `json:"skipReporter,omitempty"`
	CaseTimeout         time.Duration   `json:"caseTimeoutNs,omitempty"`
	StepBudget          int64           `json:"stepBudget,omitempty"`
	MaxTranscriptBytes  int64           `json:"maxTranscriptBytes,omitempty"`
	Context             json.RawMessage `json:"context,omitempty"`
	Trace               bool            `json:"trace,omitempty"`
	Items               []batchItem     `json:"items"`
}

// batchItem is one case in a batch.
type batchItem struct {
	Case driver.TestCase `json:"case"`
	Seed int64           `json:"seed"`
}

// batchResponse is one worker-to-parent frame: either the result of the
// item at Index (streamed as each case completes, in item order), or the
// end-of-batch marker (Done). Dirty on the Done frame tells the parent the
// worker's address space is no longer a fresh world (an abandoned timeout
// goroutine lives there) and must be recycled. Error without Done is a
// per-item resolution failure; Error with Done poisons the whole batch
// (the worker could not decode the request).
type batchResponse struct {
	Index    int              `json:"index"`
	Result   *CaseResult      `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
	BITSites []bit.SiteRecord `json:"bitSites,omitempty"`
	Done     bool             `json:"done,omitempty"`
	Dirty    bool             `json:"dirty,omitempty"`
}

// ServeFromEnv checks the ServerEnv sentinel and, when set, turns the
// current process into a case server (ServeCaseBatches) on r/w. It returns
// false (doing nothing) when the sentinel is unset — call it first thing
// in main or TestMain of any binary that should be usable as its own
// sandbox, and exit when it returns true.
func ServeFromEnv(r io.Reader, w io.Writer, resolve Resolver) (bool, error) {
	if os.Getenv(ServerEnv) == "" {
		return false, nil
	}
	return true, ServeCaseBatches(r, w, resolve)
}

// ServeCaseBatches is the case server's serve loop: read a batchRequest
// frame, execute its cases in order — each against a freshly resolved
// component, so every case keeps fresh-world semantics even on a warm
// worker — streaming one batchResponse frame per case plus a Done frame,
// until r closes. Resolution and execution errors are reported in-band; the
// returned error covers only I/O on r/w. Fatal failures of the code under
// test kill this process mid-batch by design; the parent classifies the
// death and re-dispatches the batch's remaining cases to a fresh worker.
func ServeCaseBatches(r io.Reader, w io.Writer, resolve Resolver) error {
	// A small stack cap makes stack-exhaustion mutants die fast and cheap
	// with the same deterministic "fatal error: stack overflow".
	debug.SetMaxStack(64 << 20)
	br := bufio.NewReader(r)
	send := func(resp batchResponse) error {
		payload, err := json.Marshal(resp)
		if err != nil {
			return fmt.Errorf("testexec: batch server encoding response: %w", err)
		}
		if err := pool.WriteFrame(w, payload); err != nil {
			return fmt.Errorf("testexec: batch server writing response: %w", err)
		}
		return nil
	}
	for {
		frame, err := pool.ReadFrame(br, pool.DefaultMaxFrameBytes)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("testexec: batch server reading request: %w", err)
		}
		var req batchRequest
		if err := json.Unmarshal(frame, &req); err != nil {
			// The stream is still frame-aligned; poison this batch and keep
			// serving.
			if err := send(batchResponse{Done: true, Error: fmt.Sprintf("decoding batch request: %v", err)}); err != nil {
				return err
			}
			continue
		}
		dirty := false
		for i, item := range req.Items {
			resp := serveBatchItem(req, item, resolve)
			resp.Index = i
			if resp.Result != nil && resp.Result.Outcome == OutcomeTimeout {
				// The timed-out case's goroutine is abandoned inside this
				// process; the batch finishes, but the worker must not be
				// reused as anyone's fresh world.
				dirty = true
			}
			if err := send(resp); err != nil {
				return err
			}
		}
		if err := send(batchResponse{Index: len(req.Items), Done: true, Dirty: dirty}); err != nil {
			return err
		}
	}
}

// serveBatchItem executes one batch case: fresh resolution (fresh factory,
// fresh mutation engine), bounded run, Finish/trace piggybacked on Extra,
// telemetry dropped on timeout. The process is the case's fresh world, so
// no Forker dance is needed and no leak ledger is kept.
func serveBatchItem(req batchRequest, item batchItem, resolve Resolver) batchResponse {
	if resolve == nil {
		return batchResponse{Error: "case server has no resolver"}
	}
	resolved, err := resolve(req.Component, req.Context)
	if err != nil {
		return batchResponse{Error: fmt.Sprintf("resolving %q: %v", req.Component, err)}
	}
	f := resolved.Factory
	if f == nil {
		return batchResponse{Error: fmt.Sprintf("resolver returned no factory for %q", req.Component)}
	}
	opts := Options{
		Providers:           resolved.Providers,
		SkipInvariantChecks: req.SkipInvariantChecks,
		SkipReporter:        req.SkipReporter,
		CaseTimeout:         req.CaseTimeout,
		StepBudget:          req.StepBudget,
		MaxTranscriptBytes:  req.MaxTranscriptBytes,
	}
	if req.Trace {
		// Collect the child's call spans in memory; they travel back inside
		// Extra and are re-parented under the dispatch span by the parent.
		opts.Trace = obs.NewCollector()
	}
	caseTel := bit.NewTelemetry()
	res := runCaseBounded(item.Case, f, f.Spec(), opts, item.Seed, nil, 0, caseTel)
	res.Seed = item.Seed
	if resolved.Finish != nil {
		res.Extra = resolved.Finish()
	}
	if req.Trace {
		res.Extra = obs.WrapExtra(res.Extra, opts.Trace.Spans())
	}
	resp := batchResponse{Result: &res}
	if res.Outcome != OutcomeTimeout {
		// A timed-out case's abandoned goroutine may still be recording;
		// dropping its counts keeps the aggregate deterministic, matching
		// the in-process merge rule.
		resp.BITSites = caseTel.Records()
	}
	return resp
}

// NewWorkerPool builds the worker pool Run dispatches to, resolving the
// worker argv from Options.IsolationCommand (defaulting to re-executing
// this binary with `run-case`) and setting ServerEnv. size <= 0 falls back
// to Options.PoolSize, then Options.Parallelism, then 1. Callers that share
// one pool across many IsolatePool runs (a mutation campaign) own Close;
// pass the pool via Options.WorkerPool.
func NewWorkerPool(opts Options, size int) (*pool.Pool, error) {
	argv := opts.IsolationCommand
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("testexec: resolving executable for isolation: %w", err)
		}
		argv = []string{exe, "run-case"}
	}
	if size <= 0 {
		size = opts.PoolSize
	}
	if size <= 0 {
		size = opts.Parallelism
	}
	if size <= 0 {
		size = 1
	}
	return pool.New(pool.Config{
		Argv: argv,
		Env:  append([]string{ServerEnv + "=" + BatchServerValue}, opts.IsolationEnv...),
		Size: size,
	})
}

// poolDispatcher carries the per-run state the batch dispatch loop needs.
type poolDispatcher struct {
	s         *driver.Suite
	opts      Options
	pool      *pool.Pool
	suiteSpan *obs.ActiveSpan
	suiteTel  *bit.Telemetry
	deadline  time.Duration
	results   []CaseResult
}

// release hands back a worker that finished its batch cleanly: to the idle
// set under IsolatePool, to the kill under IsolateSubprocess, whose every
// case must run in a process nothing else has touched.
func (d *poolDispatcher) release(w *pool.Worker) {
	if d.opts.Isolation == IsolateSubprocess {
		d.pool.Discard(w)
		return
	}
	d.pool.Release(w)
}

// runPooled executes the suite in child processes: cases are cut into
// batches in suite order and dispatched to workers (one dispatcher per
// Options.Parallelism), and each case's classification is the same under
// either recycle policy — same outcomes, same details, same seeds, same
// telemetry merge rule.
func runPooled(s *driver.Suite, opts Options, suiteSpan *obs.ActiveSpan, suiteTel *bit.Telemetry) ([]CaseResult, error) {
	if len(s.Cases) == 0 {
		return nil, nil // nil Results, as in process: one encoding per report
	}
	if opts.Isolation == IsolateSubprocess {
		// One case per batch on a private pool sized by Parallelism; the
		// pool knobs belong to IsolatePool and do not apply.
		opts.PoolSize, opts.BatchSize, opts.WorkerPool = 0, 1, nil
	}
	p := opts.WorkerPool
	if p == nil {
		var err error
		p, err = NewWorkerPool(opts, 0)
		if err != nil {
			return nil, err
		}
		defer p.Close()
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	d := &poolDispatcher{
		s:         s,
		opts:      opts,
		pool:      p,
		suiteSpan: suiteSpan,
		suiteTel:  suiteTel,
		deadline:  isolationDeadline(opts),
		results:   make([]CaseResult, len(s.Cases)),
	}
	// Batch b holds cases [b*batchSize, (b+1)*batchSize), the last one short.
	n := len(s.Cases)
	_ = fanout.Run((n+batchSize-1)/batchSize, opts.Parallelism, nil, func(_ struct{}, b int) error {
		d.dispatchBatch(b*batchSize, min((b+1)*batchSize, n))
		return nil
	})
	return d.results, nil
}

// dispatchBatch runs cases [start, end) of the suite on pool workers. A
// worker death mid-batch consumes exactly the in-flight case (classified
// from the worker's fate) and re-dispatches the batch's remaining cases to
// a fresh worker exactly once each — a case is never executed twice and
// never lost.
func (d *poolDispatcher) dispatchBatch(start, end int) {
	remaining := start
	sendFailures := 0
	for remaining < end {
		w, err := d.pool.Acquire()
		if err != nil {
			for i := remaining; i < end; i++ {
				d.finishCase(i, d.baseResult(i, OutcomeError, fmt.Sprintf("spawning case server: %v", err)), "spawn-error", nil, time.Now())
			}
			return
		}
		next, ok := d.runBatchOn(w, remaining, end)
		if !ok {
			// Send failed on an idle worker that died between batches. The
			// pool spawns a fresh worker on re-acquire; a bounded number of
			// consecutive failures means spawning itself is broken.
			if sendFailures++; sendFailures >= 3 {
				for i := remaining; i < end; i++ {
					d.finishCase(i, d.baseResult(i, OutcomeError, "case server pipe failed repeatedly"), "spawn-error", nil, time.Now())
				}
				return
			}
			continue
		}
		if next < end {
			d.opts.Metrics.Inc("pool.redispatches", 1)
		}
		remaining = next
	}
}

// runBatchOn dispatches cases [start, end) to one worker and consumes its
// item frames. It returns the next case index still to run (end when the
// batch completed) and whether the request was delivered at all; ok=false
// means no case was consumed and the batch should be retried whole.
func (d *poolDispatcher) runBatchOn(w *pool.Worker, start, end int) (next int, ok bool) {
	req := batchRequest{
		Component:           d.s.Component,
		SkipInvariantChecks: d.opts.SkipInvariantChecks,
		SkipReporter:        d.opts.SkipReporter,
		CaseTimeout:         d.opts.CaseTimeout,
		StepBudget:          d.opts.StepBudget,
		MaxTranscriptBytes:  d.opts.MaxTranscriptBytes,
		Context:             d.opts.IsolationContext,
		Trace:               d.opts.Trace != nil,
	}
	for i := start; i < end; i++ {
		tc := d.s.Cases[i]
		req.Items = append(req.Items, batchItem{Case: tc, Seed: CaseSeed(d.opts.Seed, tc.ID)})
	}
	payload, err := json.Marshal(req)
	if err != nil {
		d.pool.Release(w)
		for i := start; i < end; i++ {
			d.finishCase(i, d.baseResult(i, OutcomeError, fmt.Sprintf("encoding isolated case request: %v", err)), "encode-error", nil, time.Now())
		}
		return end, true
	}
	if err := w.Send(payload); err != nil {
		d.pool.Discard(w)
		return start, false
	}
	d.opts.Metrics.Inc("pool.batches", 1)

	begin := time.Now()
	for i := start; i < end; i++ {
		tc := d.s.Cases[i]
		frame, err := w.Recv(d.deadline)
		if err == pool.ErrRecvTimeout {
			// The worker is wedged beyond cooperation: the parent-side
			// backstop kill.
			d.pool.Discard(w)
			d.opts.Metrics.Inc("isolation.backstop-timeouts", 1)
			res := d.baseResult(i, OutcomeTimeout, fmt.Sprintf("isolated case exceeded the %v harness deadline; subprocess killed", d.deadline))
			d.finishCase(i, res, "backstop-timeout", nil, begin)
			return i + 1, true
		}
		if err != nil {
			// The worker's stream ended mid-batch: the in-flight case killed
			// it. A non-zero exit is the code under test killing the process
			// (criterion (i)); exit 0 without a result is a broken case
			// server, a harness error.
			code, summary := w.Fate()
			d.pool.Discard(w)
			var res CaseResult
			exit := "fatal"
			if code != 0 {
				res = d.baseResult(i, OutcomePanic, "fatal subprocess failure: "+summary)
			} else {
				exit = "no-result"
				res = d.baseResult(i, OutcomeError, "case server exited without a result")
			}
			d.finishCase(i, res, exit, nil, begin)
			return i + 1, true
		}
		var resp batchResponse
		if err := json.Unmarshal(frame, &resp); err != nil {
			d.pool.Discard(w)
			d.finishCase(i, d.baseResult(i, OutcomeError, fmt.Sprintf("decoding batch response: %v", err)), "decode-error", nil, begin)
			return i + 1, true
		}
		if resp.Done {
			if resp.Error != "" {
				// The worker could not decode the request; every case of this
				// batch gets the server error, worker stays healthy.
				for j := i; j < end; j++ {
					d.finishCase(j, d.baseResult(j, OutcomeError, "case server: "+resp.Error), "server-error", nil, begin)
					begin = time.Now()
				}
				d.release(w)
				return end, true
			}
			d.pool.Discard(w)
			d.finishCase(i, d.baseResult(i, OutcomeError, "case server ended batch early"), "protocol-error", nil, begin)
			return i + 1, true
		}
		if resp.Error != "" {
			// Per-item resolution failure; the worker keeps serving.
			d.finishCase(i, d.baseResult(i, OutcomeError, "case server: "+resp.Error), "server-error", nil, begin)
			begin = time.Now()
			continue
		}
		if resp.Result == nil {
			d.pool.Discard(w)
			d.finishCase(i, d.baseResult(i, OutcomeError, "case server sent an empty item response"), "protocol-error", nil, begin)
			return i + 1, true
		}
		res := *resp.Result
		res.CaseID, res.Transaction = tc.ID, tc.Transaction
		d.finishCase(i, res, "ok", resp.BITSites, begin)
		begin = time.Now()
	}
	// All items answered; consume the Done frame and honor its Dirty flag.
	frame, err := w.Recv(d.deadline)
	var done batchResponse
	if err == nil && json.Unmarshal(frame, &done) == nil && done.Done && !done.Dirty {
		d.release(w)
		return end, true
	}
	// Missing or dirty Done frame: every result is in, but the worker is
	// not a trustworthy fresh world anymore — recycle it.
	d.opts.Metrics.Inc("pool.recycles", 1)
	d.pool.Discard(w)
	return end, true
}

// baseResult builds the parent-side classification shell for case i.
func (d *poolDispatcher) baseResult(i int, outcome Outcome, detail string) CaseResult {
	tc := d.s.Cases[i]
	return CaseResult{
		CaseID:      tc.ID,
		Transaction: tc.Transaction,
		Seed:        CaseSeed(d.opts.Seed, tc.ID),
		Outcome:     outcome,
		Detail:      detail,
	}
}

// finishCase applies the per-case bookkeeping Run's in-process path does
// in runOne: case + dispatch spans, child-span re-parenting, oracle
// check (with harness-hook panic containment), telemetry merge (timeouts
// contribute nothing), metrics, and the index-aligned result store.
func (d *poolDispatcher) finishCase(i int, res CaseResult, exit string, sites []bit.SiteRecord, begin time.Time) {
	tc := d.s.Cases[i]
	caseSpan := d.opts.Trace.Start(d.suiteSpan.ID(), obs.KindCase, tc.ID)
	caseSpan.SetAttr("transaction", tc.Transaction)
	dispatch := d.opts.Trace.Start(caseSpan.ID(), obs.KindSpawn, tc.ID)
	dispatch.SetAttr("exit", exit)
	if d.opts.Trace != nil && exit == "ok" {
		// Split the worker's piggybacked spans off Extra and re-parent them
		// under the dispatch span; the report keeps the exact payload bytes
		// an untraced run would have carried.
		payload, childSpans := obs.UnwrapExtra(res.Extra)
		res.Extra = payload
		d.opts.Trace.EmitChildren(dispatch.ID(), childSpans)
	}
	dispatch.End()
	if d.opts.Oracle != nil && res.Outcome == OutcomePass {
		// Oracle panics must become recorded per-case outcomes, never
		// harness crashes — same containment as runCaseInner's hook guard.
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.Outcome = OutcomePanic
					res.Detail = fmt.Sprintf("panic in harness hook: %v", p)
				}
			}()
			if err := d.opts.Oracle.Check(tc.ID, res.Transcript); err != nil {
				res.Outcome = OutcomeOutputDiff
				res.Detail = err.Error()
			}
		}()
	}
	if res.Outcome != OutcomeTimeout {
		d.suiteTel.MergeRecords(sites)
	}
	caseSpan.SetAttr("outcome", res.Outcome.String())
	if res.Method != "" {
		caseSpan.SetAttr("method", res.Method)
	}
	caseSpan.End()
	if d.opts.Metrics != nil {
		d.opts.Metrics.Inc("case.total", 1)
		d.opts.Metrics.Inc("case.outcome."+res.Outcome.String(), 1)
		d.opts.Metrics.Observe("case.duration", tc.ID, time.Since(begin))
	}
	d.results[i] = res
}
