// Package testexec is the consumer-side test infrastructure of §3.4: it
// executes generated suites against a self-testable component, checks the
// class invariant around every call (the built-in partial oracle), captures
// the reporter dump, writes the run log (the paper's "Result.txt"), and
// compares observable output against a recorded reference run (the manual
// oracle the paper's experimenters validated by hand, automated here as a
// golden-output oracle).
//
// The per-case outcomes map onto the paper's mutant-kill criteria: a panic
// is criterion (i) "the program crashed", an assertion violation is
// criterion (ii), and an output difference against the reference run is
// criterion (iii).
package testexec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"concat/internal/bit"
	"concat/internal/component"
	"concat/internal/domain"
	"concat/internal/driver"
	"concat/internal/fanout"
	"concat/internal/obs"
	"concat/internal/sandbox"
	"concat/internal/sandbox/pool"
	"concat/internal/tspec"
)

// Outcome classifies one executed test case.
type Outcome int

// Case outcomes.
const (
	// OutcomePass: the case ran to completion with no assertion violation
	// and (if an oracle was installed) matching output.
	OutcomePass Outcome = iota + 1
	// OutcomeViolation: an assertion (invariant/pre/post) was violated.
	OutcomeViolation
	// OutcomePanic: the component crashed; the executor recovered it.
	OutcomePanic
	// OutcomeError: the harness could not run the case (unfillable hole,
	// constructor failure, unknown method).
	OutcomeError
	// OutcomeOutputDiff: the case completed but its observable output
	// differs from the installed oracle's reference.
	OutcomeOutputDiff
	// OutcomeTimeout: the case exceeded Options.CaseTimeout. In mutation
	// analysis a timeout is a kill — the paper's testbed would hang on a
	// runaway mutant and be killed externally.
	OutcomeTimeout
	// OutcomeResourceExhausted: the case ran out of a sandbox budget — the
	// cooperative step budget (Options.StepBudget) or the transcript
	// allocation cap (Options.MaxTranscriptBytes). Like a timeout it is a
	// kill in mutation analysis: a mutant that burns unbounded resources
	// is a crash in the paper's criterion (i) sense, caught at a
	// deterministic point instead of by an external kill.
	OutcomeResourceExhausted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomePass:
		return "pass"
	case OutcomeViolation:
		return "assertion-violation"
	case OutcomePanic:
		return "crash"
	case OutcomeError:
		return "harness-error"
	case OutcomeOutputDiff:
		return "output-diff"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeResourceExhausted:
		return "resource-exhausted"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// CaseResult is the record of one executed test case.
type CaseResult struct {
	CaseID      string
	Transaction string
	Outcome     Outcome
	// Seed is the per-case RNG seed the executor derived for this case
	// (see CaseSeed). It depends only on the suite seed and the case ID,
	// never on execution order, so serial and parallel runs record the
	// same value.
	Seed int64
	// Method is the method being executed when the case failed (the log's
	// "Method called:" line); empty on pass.
	Method string
	// ViolationKind is set when Outcome is OutcomeViolation.
	ViolationKind bit.ViolationKind
	// Detail carries the failure message.
	Detail string
	// Transcript is the case's observable output: every call's results and
	// errors plus the final reporter dump. It is what the golden oracle
	// compares.
	Transcript string
	// Extra is opaque per-case data a subprocess case server's resolver
	// shipped back (see Resolved.Finish) — e.g. mutation reach/infection
	// flags. Empty for in-process execution.
	Extra json.RawMessage
}

// CaseRecord is one executed case's full record: its result plus its
// contribution to the report-level BIT telemetry and abandonment count.
// Both run modes produce one record per case (RunRecords) and a Report is
// assembled from records (Assemble), so a report rebuilt from stored
// records (the test-impact engine stores each under a store.KindCaseResult
// key in this JSON shape) is byte-identical to a full run's.
type CaseRecord struct {
	Result CaseResult `json:"result"`
	// Sites is the case's assertion-site telemetry, sorted by site. A
	// timed-out case has none (see Report.BITSites).
	Sites []bit.SiteRecord `json:"sites,omitempty"`
	// Abandoned is 1 when the case timed out in process and its goroutine
	// was abandoned, else 0.
	Abandoned int `json:"abandoned,omitempty"`
}

// Report aggregates a suite run.
type Report struct {
	Component string
	Results   []CaseResult
	// AbandonedGoroutines counts the cases whose in-process execution
	// exceeded CaseTimeout: their goroutines cannot be killed and were
	// abandoned (and recorded in the leak ledger, if one is given). It is
	// the sum of the cases' own counts (CaseRecord.Abandoned), so it is
	// deterministic and independent of any other run sharing the ledger,
	// and serial and parallel runs agree. Subprocess isolation never
	// abandons goroutines in the harness (the leak dies with the child),
	// so the count stays zero there.
	AbandonedGoroutines int
	// BITSites is the suite's aggregated assertion-site telemetry: for every
	// (kind, method, predicate) assertion the component evaluated through its
	// embedded bit.Base, how often it was evaluated and how often it was
	// violated. The executor installs a private bit.Telemetry per case and
	// merges completed cases' counts here, sorted by site — deterministic for
	// a fixed seed, identical across serial/parallel, in-process/isolated and
	// traced/untraced runs. Timed-out cases contribute nothing: their
	// abandoned goroutines may still be evaluating assertions, so their
	// counts are unordered by construction and are dropped on both the
	// in-process and the subprocess path.
	BITSites []bit.SiteRecord `json:",omitempty"`

	// indexOnce/index back Result's by-ID lookup. The index is built
	// lazily on the first Result call — after Results is final — so
	// resolving many case IDs (per-killing-case resolution over a large
	// campaign) is linear instead of quadratic. Results keeps its suite
	// order; the index is a read-side cache only.
	indexOnce sync.Once
	index     map[string]int
}

// Assemble builds a suite report from its cases' records in suite order:
// results concatenate, site counts merge (addition, so the order of the
// merge does not matter) and abandonment counts sum.
func Assemble(component string, recs []CaseRecord) *Report {
	rep := &Report{Component: component}
	if len(recs) == 0 {
		return rep // nil Results: an empty report has one encoding
	}
	rep.Results = make([]CaseResult, len(recs))
	tel := bit.NewTelemetry()
	for i, rec := range recs {
		rep.Results[i] = rec.Result
		tel.MergeRecords(rec.Sites)
		rep.AbandonedGoroutines += rec.Abandoned
	}
	rep.BITSites = tel.Records()
	return rep
}

// Counts returns the number of cases per outcome.
func (r *Report) Counts() map[Outcome]int {
	out := make(map[Outcome]int)
	for _, c := range r.Results {
		out[c.Outcome]++
	}
	return out
}

// AllPassed reports whether every case passed.
func (r *Report) AllPassed() bool {
	for _, c := range r.Results {
		if c.Outcome != OutcomePass {
			return false
		}
	}
	return true
}

// Failures returns the non-passing case results.
func (r *Report) Failures() []CaseResult {
	var out []CaseResult
	for _, c := range r.Results {
		if c.Outcome != OutcomePass {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders a one-line human summary plus per-outcome counts.
func (r *Report) Summary() string {
	counts := r.Counts()
	var keys []int
	for k := range counts {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", Outcome(k), counts[Outcome(k)]))
	}
	return fmt.Sprintf("%s: %d cases (%s)", r.Component, len(r.Results), strings.Join(parts, ", "))
}

// Render writes the summary line and one FAIL line per non-passing case.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintln(&b, r.Summary())
	for _, f := range r.Failures() {
		fmt.Fprintf(&b, "  FAIL %s (%s): %s — %s\n", f.CaseID, f.Transaction, f.Outcome, f.Detail)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Result returns the result for a case ID. The first call builds a
// CaseID index over Results (first occurrence wins, matching the old
// linear scan), so repeated lookups are O(1). Call it only once the report
// is complete — results appended after the first lookup are not indexed.
func (r *Report) Result(caseID string) (CaseResult, bool) {
	r.indexOnce.Do(func() {
		r.index = make(map[string]int, len(r.Results))
		for i, c := range r.Results {
			if _, dup := r.index[c.CaseID]; !dup {
				r.index[c.CaseID] = i
			}
		}
	})
	i, ok := r.index[caseID]
	if !ok {
		return CaseResult{}, false
	}
	return r.Results[i], true
}

// Oracle checks a completed case's observable output. The golden oracle
// (see Golden) is the standard implementation.
type Oracle interface {
	// Check returns nil if the transcript is acceptable for the case, or an
	// error describing the difference.
	Check(caseID, transcript string) error
}

// Options configure a suite run.
type Options struct {
	// LogWriter receives the run log ("Result.txt" analog); nil discards.
	LogWriter io.Writer
	// Providers complete structured-parameter holes by component type name.
	Providers map[string]domain.Provider
	// Seed drives the providers' randomness; with the same seed hole
	// completion is reproducible.
	Seed int64
	// Oracle, if non-nil, checks every completed case's transcript.
	Oracle Oracle
	// SkipInvariantChecks disables the around-call invariant checking; used
	// by the assertions-oracle ablation.
	SkipInvariantChecks bool
	// SkipReporter disables the end-of-case reporter dump.
	SkipReporter bool
	// CaseTimeout, when positive, bounds each test case's wall-clock time.
	// A case that exceeds it is recorded as OutcomeTimeout. The runaway
	// case's goroutine is abandoned (Go cannot kill it); use this as a
	// last-resort guard for components without their own iteration bounds.
	CaseTimeout time.Duration
	// Parallelism is the number of workers the suite's cases fan out over
	// (internal/fanout); zero or one executes serially. Every case derives its
	// RNG seed from the suite seed and its own ID (CaseSeed), each case
	// constructs its own component instance, and the merged Report lists
	// results in suite order — so for any Parallelism the Report is
	// bit-for-bit identical to the serial run. The factory and oracle must
	// tolerate concurrent calls (the bundled factories and the Golden
	// oracle do); factories whose instances share mutable context should
	// implement component.Forker so every case gets a fresh world.
	Parallelism int
	// StepBudget, when positive, bounds the cooperative work one case may
	// do: the executor charges a step per dispatched call and the BIT
	// guard charges one per guarded service entry (invariant check,
	// reporter dump). A case that exhausts the budget is recorded as
	// OutcomeResourceExhausted at a deterministic point.
	StepBudget int64
	// MaxTranscriptBytes, when positive, caps a case's transcript. A case
	// that exceeds it is recorded as OutcomeResourceExhausted and its
	// transcript carries a truncation marker.
	MaxTranscriptBytes int64
	// LeakLedger receives the abandonment record of every timed-out case's
	// goroutine. Nil keeps none; pass a shared sandbox.Ledger to watch
	// Outstanding() across runs (a live gauge of goroutines still spinning
	// past their deadline). Either way each abandoned case counts one in
	// its own CaseRecord, and Report.AbandonedGoroutines sums them.
	LeakLedger *sandbox.Ledger
	// Isolation selects the crash-containment mode. IsolateSubprocess and
	// IsolatePool execute cases in child case servers so fatal mutant
	// failures (stack exhaustion, os.Exit, OOM kill) become recorded
	// OutcomePanic results instead of harness deaths.
	Isolation IsolationMode
	// IsolationCommand is the argv of the case server to spawn under
	// either child mode. Empty defaults to re-executing this binary with a
	// `run-case` argument (the concat CLI's hidden subcommand); test
	// binaries typically pass their own os.Executable() plus a ServerEnv
	// check in TestMain.
	IsolationCommand []string
	// IsolationEnv is appended to the case server's environment (ServerEnv
	// is always set).
	IsolationEnv []string
	// IsolationContext is forwarded opaquely to the case server's Resolver
	// — mutation analysis ships the active mutant through it.
	IsolationContext json.RawMessage
	// IsolationBackstop overrides the parent-side deadline applied to an
	// isolated case server. Zero derives it from CaseTimeout when that is
	// set, and falls back to DefaultIsolationBackstop when it is not — a
	// wedged child (a hang the cooperative timeout cannot reach) is always
	// killed eventually; no campaign blocks forever on one case.
	IsolationBackstop time.Duration
	// PoolSize bounds the number of warm worker processes under
	// IsolatePool; zero derives it from Parallelism (minimum 1). Like the
	// other scheduling knobs it never changes results — only wall-clock.
	// IsolateSubprocess ignores PoolSize, BatchSize and WorkerPool: it runs
	// one case per worker on a private pool of Parallelism workers.
	PoolSize int
	// BatchSize is the number of cases dispatched to a pool worker per
	// round-trip under IsolatePool; zero applies DefaultBatchSize.
	BatchSize int
	// WorkerPool, when non-nil, is the shared warm worker pool to dispatch
	// IsolatePool batches to. The caller owns its lifecycle (Close); a
	// mutation campaign shares one pool across every mutant's suite run so
	// a provisioned worker serves many mutants between restarts. Nil makes
	// Run build (and close) a private pool via NewWorkerPool.
	WorkerPool *pool.Pool
	// Trace receives the run's structured span stream (suite → case →
	// call / child-spawn); nil disables tracing. Timing lives ONLY in this
	// side channel: the Report, its transcripts and every golden comparison
	// are byte-identical with tracing on or off, serial or parallel.
	Trace *obs.Tracer
	// TraceParent is the span the suite span nests under (a campaign or
	// mutant span); zero makes the suite span a trace root.
	TraceParent obs.SpanID
	// Metrics, when non-nil, accumulates per-outcome counters, duration
	// histograms and slowest-case lists for the run — the aggregate side
	// channel next to Trace, under the same determinism contract.
	Metrics *obs.Metrics
}

// CaseSeed derives the RNG seed for one test case from the suite seed and
// the case ID. Hole completion for a case is a function of this seed alone,
// which is what keeps reports identical across serial and parallel runs:
// the seed depends on the case's identity, not on the order or the worker
// the case happens to run on.
func CaseSeed(suiteSeed int64, caseID string) int64 {
	return domain.DeriveSeed(suiteSeed, "case:"+caseID)
}

// Run executes the suite against the component and assembles the report
// from its cases' records (RunRecords, Assemble). Per-case failures are
// recorded in the report, not returned as errors; Run itself fails only on
// harness-level misuse (nil suite/factory, component name mismatch).
//
// With Options.Parallelism > 1 the cases execute concurrently; the report
// is identical to the serial run's (see CaseSeed) and the run log is still
// written in suite order.
func Run(s *driver.Suite, f component.Factory, opts Options) (*Report, error) {
	recs, err := RunRecords(s, f, opts)
	if err != nil {
		return nil, err
	}
	return Assemble(s.Component, recs), nil
}

// RunRecords executes the suite under one suite span and returns one
// record per case, in suite order whichever worker ran which case.
func RunRecords(s *driver.Suite, f component.Factory, opts Options) ([]CaseRecord, error) {
	if s == nil || f == nil {
		return nil, errors.New("testexec: nil suite or factory")
	}
	if s.Component != f.Name() {
		return nil, fmt.Errorf("testexec: suite is for %q but factory builds %q", s.Component, f.Name())
	}
	log := opts.LogWriter
	if log == nil {
		log = io.Discard
	}

	// The suite span roots the run's trace; every case span hangs off it.
	// Span attrs carry only deterministic labels — wall-clock lives in the
	// span timings, which normalization ignores.
	suiteSpan := opts.Trace.Start(opts.TraceParent, obs.KindSuite, s.Component)
	suiteSpan.SetAttr("cases", strconv.Itoa(len(s.Cases)))
	if opts.Isolation == IsolateSubprocess {
		suiteSpan.SetAttr("isolation", "subprocess")
	} else if opts.Isolation == IsolatePool {
		suiteSpan.SetAttr("isolation", "pool")
	}

	r := &suiteRun{s: s, opts: opts, span: suiteSpan}
	if opts.Isolation == IsolateSubprocess || opts.Isolation == IsolatePool {
		// Child processes: batched dispatch replaces the per-case loop
		// below; each case still ends in finish.
		if err := runPooled(r); err != nil {
			return nil, err
		}
	} else if len(s.Cases) > 0 { // an empty suite has no records
		r.recs = make([]CaseRecord, len(s.Cases))
		spec := f.Spec()
		_ = fanout.Run(len(s.Cases), opts.Parallelism, nil, func(_ struct{}, i int) error {
			tc := s.Cases[i]
			caseSpan := r.startCase(tc)
			var begin time.Time
			if opts.Metrics != nil {
				begin = time.Now()
			}
			// Each case gets a private telemetry, so a timed-out case's
			// abandoned goroutine keeps writing into its own harmlessly.
			caseTel := bit.NewTelemetry()
			res, abandoned := r.runInProcess(tc, f, spec, caseSpan.ID(), caseTel)
			rec := CaseRecord{Result: res, Sites: caseTel.Records()}
			if abandoned {
				rec.Abandoned = 1
			}
			r.finish(i, caseSpan, rec, begin)
			return nil
		})
	}
	for _, rec := range r.recs {
		writeLog(log, rec.Result)
	}
	if workers := min(opts.Parallelism, len(s.Cases)); workers > 1 {
		suiteSpan.SetAttr("parallelism", strconv.Itoa(workers))
	}
	suiteSpan.End()
	opts.Metrics.Inc("suite.runs", 1)
	return r.recs, nil
}

// suiteRun is one RunRecords call's per-case state, shared by the
// in-process loop and the pooled dispatcher.
type suiteRun struct {
	s    *driver.Suite
	opts Options
	span *obs.ActiveSpan // the suite span
	recs []CaseRecord    // index-aligned with s.Cases
}

// startCase opens a case's span under the suite span.
func (r *suiteRun) startCase(tc driver.TestCase) *obs.ActiveSpan {
	sp := r.opts.Trace.Start(r.span.ID(), obs.KindCase, tc.ID)
	sp.SetAttr("transaction", tc.Transaction)
	return sp
}

// runInProcess executes one case in this process, in a fresh world when the
// factory forks one, and reports whether its goroutine was abandoned.
func (r *suiteRun) runInProcess(tc driver.TestCase, f component.Factory, spec *tspec.Spec, caseSpan obs.SpanID, tel *bit.Telemetry) (res CaseResult, abandoned bool) {
	seed := CaseSeed(r.opts.Seed, tc.ID)
	// Harness hooks run outside runCase's recovery: a panicking
	// Forker.Fork or provider map must become a recorded per-case
	// outcome, never a harness crash.
	defer func() {
		if p := recover(); p != nil {
			res.CaseID, res.Transaction, res.Seed = tc.ID, tc.Transaction, seed
			res.Outcome = OutcomePanic
			res.Detail = fmt.Sprintf("panic in harness hook: %v", p)
		}
	}()
	// Components whose instances share mutable context (component.Forker)
	// get a fresh world per case: without this, a case's transcript
	// depends on what earlier — or, under parallelism, concurrent — cases
	// left behind in the shared state.
	cf, caseOpts := f, r.opts
	if fk, ok := f.(component.Forker); ok {
		cf = fk.Fork()
		if ps, ok := cf.(interface {
			Providers() map[string]domain.Provider
		}); ok && caseOpts.Providers != nil {
			caseOpts.Providers = ps.Providers()
		}
	}
	res, abandoned = runCaseBounded(tc, cf, spec, caseOpts, seed, r.opts.LeakLedger, caseSpan, tel)
	res.Seed = seed
	return res, abandoned
}

// finish is the per-case step both run modes end in: the oracle check of a
// passing case (a panicking Check becomes a recorded crash, never a
// harness crash), the rule that a timed-out case contributes no sites (its
// abandoned goroutine may still be recording), the case span's outcome and
// method, the case.* metrics, and the record stored at index i.
func (r *suiteRun) finish(i int, caseSpan *obs.ActiveSpan, rec CaseRecord, begin time.Time) {
	tc, res := r.s.Cases[i], &rec.Result
	if r.opts.Oracle != nil && res.Outcome == OutcomePass {
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.Outcome = OutcomePanic
					res.Detail = fmt.Sprintf("panic in harness hook: %v", p)
				}
			}()
			if err := r.opts.Oracle.Check(tc.ID, res.Transcript); err != nil {
				res.Outcome = OutcomeOutputDiff
				res.Detail = err.Error()
			}
		}()
	}
	if res.Outcome == OutcomeTimeout {
		rec.Sites = nil
	}
	caseSpan.SetAttr("outcome", res.Outcome.String())
	if res.Method != "" {
		caseSpan.SetAttr("method", res.Method)
	}
	caseSpan.End()
	if r.opts.Metrics != nil {
		r.opts.Metrics.Inc("case.total", 1)
		r.opts.Metrics.Inc("case.outcome."+res.Outcome.String(), 1)
		r.opts.Metrics.Observe("case.duration", tc.ID, time.Since(begin))
	}
	r.recs[i] = rec
}

// Case-goroutine states for the timeout watchdog's handover.
const (
	caseRunning int32 = iota
	caseFinished
	caseAbandoned
)

// runCaseBounded applies Options.CaseTimeout around runCase. A timed-out
// case's goroutine cannot be killed; it is abandoned (abandoned=true) into
// the leak ledger, if any, and settles its entry if it ever completes,
// while the timeout result keeps the case's seed and the partial
// transcript written so far — a timeout kill is as diagnosable as a panic.
func runCaseBounded(tc driver.TestCase, f component.Factory, spec *tspec.Spec, opts Options, seed int64, ledger *sandbox.Ledger, caseSpan obs.SpanID, tel *bit.Telemetry) (res CaseResult, abandoned bool) {
	tb := newTranscript(opts.MaxTranscriptBytes)
	if opts.CaseTimeout <= 0 {
		return runCase(tc, f, spec, opts, seed, tb, caseSpan, tel), false
	}
	done := make(chan CaseResult, 1)
	var state atomic.Int32
	go func() {
		res := runCase(tc, f, spec, opts, seed, tb, caseSpan, tel)
		if state.CompareAndSwap(caseRunning, caseFinished) {
			done <- res
			return
		}
		// The watchdog already abandoned this goroutine; settle the ledger
		// so Outstanding() tracks only goroutines still running.
		ledger.Settle()
	}()
	timer := time.NewTimer(opts.CaseTimeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res, false
	case <-timer.C:
		if !state.CompareAndSwap(caseRunning, caseAbandoned) {
			// The case finished in the instant the timer fired; its result
			// is already in the channel.
			return <-done, false
		}
		ledger.Abandon()
		return CaseResult{
			CaseID:      tc.ID,
			Transaction: tc.Transaction,
			Outcome:     OutcomeTimeout,
			Seed:        seed,
			Detail:      fmt.Sprintf("case exceeded %v; goroutine abandoned (leak ledger)", opts.CaseTimeout),
			Transcript:  tb.Snapshot(fmt.Sprintf("[case timed out after %v: partial transcript]", opts.CaseTimeout)),
		}, true
	}
}

// runCase executes one test case: construct, invariant-wrapped calls,
// reporter, destroy. Panics anywhere inside are recovered into
// OutcomePanic — the paper's "the program crashed while running the test
// cases" kill criterion. The transcript accumulates in tb so the timeout
// watchdog can snapshot a partial transcript, and so the cap
// (Options.MaxTranscriptBytes) cuts flooding cases off deterministically.
func runCase(tc driver.TestCase, f component.Factory, spec *tspec.Spec, opts Options, seed int64, tb *transcript, caseSpan obs.SpanID, tel *bit.Telemetry) (res CaseResult) {
	res = CaseResult{CaseID: tc.ID, Transaction: tc.Transaction, Outcome: OutcomePass}
	currentMethod := ""
	// curCall is the call span of the dispatch in flight: on a panic the
	// deferred recovery closes it with a "panic" status, so the crashing
	// call is visible in the trace instead of a dangling un-emitted span.
	var curCall *obs.ActiveSpan
	startCall := func(method string) *obs.ActiveSpan {
		sp := opts.Trace.Start(caseSpan, obs.KindCall, method)
		curCall = sp
		return sp
	}
	endCall := func(sp *obs.ActiveSpan, status string) {
		sp.SetAttr("status", status)
		sp.End()
		curCall = nil
	}
	defer func() {
		res.Transcript = tb.String()
		if p := recover(); p != nil {
			res.Outcome = OutcomePanic
			res.Method = currentMethod
			res.Detail = fmt.Sprintf("panic: %v", p)
			if curCall != nil {
				endCall(curCall, "panic")
			}
		}
	}()

	if len(tc.Calls) == 0 {
		res.Outcome = OutcomeError
		res.Detail = "test case has no calls"
		return res
	}
	rng := domain.NewRand(seed)

	// The cooperative step budget: the executor charges one step per
	// dispatched call, and — via bit.BudgetSetter — the component's own BIT
	// guard charges one per guarded service entry.
	var budget *sandbox.Budget
	if opts.StepBudget > 0 {
		budget = sandbox.NewBudget(opts.StepBudget, 0)
	}
	exhausted := func(where string, err error) CaseResult {
		res.Outcome = OutcomeResourceExhausted
		res.Method = where
		res.Detail = err.Error()
		return res
	}

	// Complete holes in every call up front.
	calls := make([]driver.Call, len(tc.Calls))
	for i, c := range tc.Calls {
		cc := c
		cc.Args = append([]domain.Value(nil), c.Args...)
		for _, h := range c.Holes {
			v, err := completeHole(h, opts.Providers, rng)
			if err != nil {
				res.Outcome = OutcomeError
				res.Method = c.Method
				res.Detail = err.Error()
				return res
			}
			if h.Arg < 0 || h.Arg >= len(cc.Args) {
				res.Outcome = OutcomeError
				res.Method = c.Method
				res.Detail = fmt.Sprintf("hole index %d out of range", h.Arg)
				return res
			}
			cc.Args[h.Arg] = v
		}
		calls[i] = cc
	}

	// Birth: the first call is the constructor.
	ctor := calls[0]
	currentMethod = ctor.Method
	ctorSpan := startCall(ctor.Method)
	if err := budget.Step(); err != nil {
		endCall(ctorSpan, "resource-exhausted")
		return exhausted(ctor.Method, err)
	}
	cut, err := f.New(ctor.Method, ctor.Args)
	if err != nil {
		endCall(ctorSpan, "harness-error")
		res.Outcome = OutcomeError
		res.Method = ctor.Method
		res.Detail = fmt.Sprintf("constructor failed: %v", err)
		return res
	}
	destroyed := false
	defer func() {
		if !destroyed {
			_ = cut.Destroy()
		}
	}()
	cut.SetBITMode(bit.ModeTest)
	if budget != nil {
		if bs, ok := cut.(bit.BudgetSetter); ok {
			bs.SetBITBudget(budget)
		}
	}
	if tel != nil {
		if ts, ok := cut.(bit.TelemetrySetter); ok {
			ts.SetBITTelemetry(tel)
		}
	}
	fmt.Fprintf(tb, "NEW %s(%s)\n", ctor.Method, argList(ctor.Args))
	if tb.Truncated() {
		endCall(ctorSpan, "resource-exhausted")
		return exhausted(ctor.Method, errors.New(tb.limitDetail()))
	}
	endCall(ctorSpan, "ok")

	// checkInvariant classifies an invariant-check failure: nil (holds),
	// a *bit.Violation (the partial oracle's verdict), or a sandbox
	// exhaustion error bubbled up through the BIT guard's budget.
	checkInvariant := func(when string) error {
		if opts.SkipInvariantChecks {
			return nil
		}
		if err := cut.InvariantTest(); err != nil {
			if v, ok := bit.AsViolation(err); ok {
				return v
			}
			if sandbox.IsExhausted(err) {
				return err
			}
			// Guard errors and the like are harness problems, surfaced as a
			// synthetic violation detail so they are visible in logs.
			return &bit.Violation{Kind: bit.KindInvariant, Method: when, Detail: err.Error()}
		}
		return nil
	}
	// classify turns a checkInvariant error into the case's final result.
	classify := func(when string, err error) CaseResult {
		if sandbox.IsExhausted(err) {
			return exhausted(when, err)
		}
		v, _ := bit.AsViolation(err)
		res.Outcome = OutcomeViolation
		res.Method = when
		res.ViolationKind = v.Kind
		res.Detail = v.Error()
		return res
	}

	if err := checkInvariant(ctor.Method); err != nil {
		return classify(currentMethod, err)
	}

	// Processing and death: remaining calls, invariant around each.
	for _, call := range calls[1:] {
		currentMethod = call.Method
		callSpan := startCall(call.Method)
		if err := budget.Step(); err != nil {
			endCall(callSpan, "resource-exhausted")
			return exhausted(call.Method, err)
		}
		if isDestructor(spec, call) {
			fmt.Fprintf(tb, "DESTROY %s\n", call.Method)
			if err := cut.Destroy(); err != nil {
				if v, ok := bit.AsViolation(err); ok {
					endCall(callSpan, "assertion-violation")
					res.Outcome = OutcomeViolation
					res.Method = call.Method
					res.ViolationKind = v.Kind
					res.Detail = v.Error()
					return res
				}
				endCall(callSpan, "harness-error")
				res.Outcome = OutcomeError
				res.Method = call.Method
				res.Detail = fmt.Sprintf("destructor failed: %v", err)
				return res
			}
			destroyed = true
			endCall(callSpan, "ok")
			continue
		}
		results, err := cut.Invoke(call.Method, call.Args)
		if err != nil {
			if v, ok := bit.AsViolation(err); ok {
				endCall(callSpan, "assertion-violation")
				res.Outcome = OutcomeViolation
				res.Method = call.Method
				res.ViolationKind = v.Kind
				res.Detail = v.Error()
				return res
			}
			if sandbox.IsExhausted(err) {
				endCall(callSpan, "resource-exhausted")
				return exhausted(call.Method, err)
			}
			// A non-contract error is observable behaviour: record it in
			// the transcript and continue the transaction, so the golden
			// oracle can compare error behaviour between runs.
			fmt.Fprintf(tb, "CALL %s(%s) -> error: %v\n", call.Method, argList(call.Args), err)
			if tb.Truncated() {
				endCall(callSpan, "resource-exhausted")
				return exhausted(call.Method, errors.New(tb.limitDetail()))
			}
			endCall(callSpan, "error")
			continue
		}
		fmt.Fprintf(tb, "CALL %s(%s) -> [%s]\n", call.Method, argList(call.Args), argList(results))
		if tb.Truncated() {
			endCall(callSpan, "resource-exhausted")
			return exhausted(call.Method, errors.New(tb.limitDetail()))
		}
		endCall(callSpan, "ok")
		if err := checkInvariant(call.Method); err != nil {
			return classify(call.Method, err)
		}
	}

	// Reporter dump: the object's final internal state, part of the
	// observable output (the paper's driver calls Reporter at case end). The
	// dump buffers in a metered builder — each write charges the transcript
	// cap — so a flooding Reporter is stopped cooperatively and never
	// interleaves a partial dump into the transcript.
	if !opts.SkipReporter && !destroyed {
		repSpan := startCall("reporter")
		mb := &meteredBuilder{t: tb}
		err := cut.Reporter(mb)
		if sandbox.IsExhausted(err) || tb.Truncated() {
			// Truncated() also catches a Reporter that swallowed the metered
			// writer's exhaustion error and returned nil.
			endCall(repSpan, "resource-exhausted")
			return exhausted("reporter", errors.New(tb.limitDetail()))
		}
		if err == nil {
			dump := mb.b.String()
			tb.writeRaw("REPORT " + dump)
			if !strings.HasSuffix(dump, "\n") {
				tb.writeRaw("\n")
			}
		}
		endCall(repSpan, "ok")
	}
	if !destroyed {
		dtorSpan := startCall("destroy")
		if err := cut.Destroy(); err != nil {
			if v, ok := bit.AsViolation(err); ok {
				endCall(dtorSpan, "assertion-violation")
				res.Outcome = OutcomeViolation
				res.Method = "destroy"
				res.ViolationKind = v.Kind
				res.Detail = v.Error()
				return res
			}
			endCall(dtorSpan, "harness-error")
			res.Outcome = OutcomeError
			res.Method = "destroy"
			res.Detail = fmt.Sprintf("destructor failed: %v", err)
			return res
		}
		destroyed = true
		endCall(dtorSpan, "ok")
	}
	return res
}

func completeHole(h driver.Hole, providers map[string]domain.Provider, rng *rand.Rand) (domain.Value, error) {
	if p, ok := providers[h.TypeName]; ok {
		v, err := p.Provide(rng)
		if err != nil {
			return domain.Value{}, fmt.Errorf("provider for %q: %w", h.TypeName, err)
		}
		return v, nil
	}
	if h.Nullable {
		return domain.Nil(), nil
	}
	return domain.Value{}, fmt.Errorf("no provider for structured parameter of type %q (manual completion required)", h.TypeName)
}

func isDestructor(spec *tspec.Spec, call driver.Call) bool {
	if spec == nil {
		return false
	}
	if m, ok := spec.MethodByID(call.MethodID); ok {
		return m.Category == tspec.CatDestructor
	}
	if m, ok := spec.MethodByName(call.Method); ok {
		return m.Category == tspec.CatDestructor
	}
	return false
}

func argList(vs []domain.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// writeLog appends one case's entry in the paper's Result.txt style.
func writeLog(w io.Writer, res CaseResult) {
	if res.Outcome == OutcomePass {
		fmt.Fprintf(w, "TestCase%s OK!\n\n", res.CaseID)
		return
	}
	fmt.Fprintf(w, "TestCase%s\n", res.CaseID)
	fmt.Fprintf(w, "%s\n", res.Detail)
	if res.Method != "" {
		fmt.Fprintf(w, "Method called: %s\n", res.Method)
	}
	fmt.Fprintf(w, "\n")
}
