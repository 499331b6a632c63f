// Package analysis runs the paper's interface-mutation experiments (§4):
// it executes a suite against the original component to record the golden
// outputs, then once per mutant, and decides killed/alive by the paper's
// three criteria — crash, assertion violation absent in the original, and
// output difference. Tabulate/Render reproduce the layout of Tables 2-3.
package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"concat/internal/component"
	"concat/internal/core/canon"
	"concat/internal/driver"
	"concat/internal/fanout"
	"concat/internal/mutation"
	"concat/internal/obs"
	"concat/internal/store"
	"concat/internal/testexec"
)

// IsolationContext is the wire form the analysis ships to a subprocess case
// server (testexec.Options.IsolationContext) so the child can re-arm the
// active mutant. A resolver serving mutation campaigns decodes this shape;
// a nil Mutant (the reference run) means "original program".
type IsolationContext struct {
	Mutant *mutation.Mutant `json:"mutant,omitempty"`
}

// CaseFlags is the per-case Extra payload a mutation-aware case server ships
// back (testexec.Resolved.Finish): the child engine's reach/infection record.
// Under isolation the parent's engine never sees the instrumented uses, so
// the analysis reconstructs Reached/Infected by OR-ing these across cases.
type CaseFlags struct {
	Reached  bool `json:"reached"`
	Infected bool `json:"infected"`
}

// KillReason classifies how a mutant was killed, matching the paper's three
// criteria in §4.
type KillReason int

// Kill reasons.
const (
	// KillCrash — "the program (driver + mutant class) crashed while running
	// the test cases" (recovered panic).
	KillCrash KillReason = iota + 1
	// KillAssertion — "an exception was raised due to assertion violation,
	// during a mutant execution, given that this was not the case with the
	// original program".
	KillAssertion
	// KillOutputDiff — "the output of the program that finished execution
	// was different of the output of the original program".
	KillOutputDiff
)

// String names the reason.
func (k KillReason) String() string {
	switch k {
	case KillCrash:
		return "crash"
	case KillAssertion:
		return "assertion"
	case KillOutputDiff:
		return "output-diff"
	default:
		return fmt.Sprintf("reason(%d)", int(k))
	}
}

// MutantResult is the verdict on one mutant.
type MutantResult struct {
	Mutant mutation.Mutant
	Killed bool
	Reason KillReason // set when Killed
	// KillingCase is the first test case that killed the mutant.
	KillingCase string
	// Reached: the mutant's site executed at least once during the run.
	Reached bool
	// Infected: the mutation changed at least one value during the run.
	// A mutant that ran the entire suite without infecting any state cannot
	// be killed by this test set; it is an equivalence candidate, automating
	// the paper's manual marking of equivalent mutants.
	Infected bool
}

// Equivalent reports whether the surviving mutant is an equivalence
// candidate: its site executed (the fault was reached) yet the mutation
// never changed a value — the replacement is indistinguishable from the
// original on every execution of this suite. An unreached mutant is NOT
// equivalent, merely unexercised; it counts as a plain survivor, which is
// how the paper's Table 3 arrives at 0 equivalents despite 58 survivors.
func (r MutantResult) Equivalent() bool {
	return !r.Killed && r.Reached && !r.Infected
}

// Analysis runs the interface-mutation experiment: execute the suite once
// against the original component to record the golden outputs, then once per
// mutant, deciding killed/alive per the paper's three criteria.
type Analysis struct {
	// mutation.Engine carries the site table; the factory's instances must route
	// their instrumented uses through the same engine.
	Engine *mutation.Engine
	// Factory builds the component under test.
	Factory component.Factory
	// Suite is the test set under evaluation.
	Suite *driver.Suite
	// Exec configures suite execution (providers, seeds); the Oracle field
	// is managed by the analysis itself.
	Exec testexec.Options
	// Progress, if non-nil, receives one line per mutant verdict.
	Progress io.Writer
	// Parallelism is the number of workers the mutants fan out over
	// (internal/fanout); zero or one analyzes them serially on Engine and
	// Factory. An engine holds one active mutant at a time, so each of
	// several workers gets a private engine and factory, from NewFactory
	// over an Engine clone, set up once before any mutant runs. Verdicts
	// land index-aligned with the input, and a failing run returns the
	// lowest-indexed mutant's error, so parallel and serial runs produce
	// identical tables, kill matrices, killing cases and errors.
	Parallelism int
	// NewFactory binds a component factory to the given engine; a parallel
	// run requires it. Each worker gets Engine.Clone() plus
	// NewFactory(clone).
	NewFactory func(*mutation.Engine) component.Factory
	// Store, when enabled, is the content-addressed verdict cache: before
	// executing a mutant the analysis looks up (spec-hash, suite-hash,
	// mutant-hash, seed, options-hash) and serves the recorded verdict on a
	// hit instead of running the suite. A mutant verdict is a pure function
	// of those inputs — parallelism, isolation and tracing are
	// determinism-neutral — so cached campaigns produce byte-identical
	// tables while re-executing only mutants whose hash inputs changed.
	// Hits and misses are tallied into Result.CacheHits/CacheMisses. Any
	// store.Backend works — file-backed, in-memory, or a remote peer's
	// store over HTTP — since verdicts are machine-independent.
	Store store.Backend
}

// Result aggregates an analysis run.
type Result struct {
	Component string
	Operators []mutation.Operator
	Mutants   []MutantResult
	// Reference is the original program's report (no mutant active).
	Reference *testexec.Report
	// CacheHits/CacheMisses count the verdict-store lookups of this run
	// (both zero when no Store was configured). Hits are mutants served
	// from the store without execution; misses were executed and recorded.
	CacheHits   int
	CacheMisses int
}

// cacheState carries the campaign-constant parts of a verdict-store key plus
// the run's hit/miss tallies. The base key is computed once per Run — only
// the mutant hash varies between lookups — and the counters are atomics so
// parallel workers can share one state.
type cacheState struct {
	base         store.Key
	hits, misses atomic.Int64
}

// cacheState hashes the campaign-constant key components (spec, suite, seed,
// options). Returns nil when no Store is configured.
func (a *Analysis) cacheState() (*cacheState, error) {
	if !store.Enabled(a.Store) {
		return nil, nil
	}
	spec := a.Factory.Spec()
	if spec == nil {
		return nil, errors.New("mutation: verdict store requires a factory with a t-spec (the spec hash is part of the cache key)")
	}
	specHash, err := spec.CanonicalHash()
	if err != nil {
		return nil, fmt.Errorf("mutation: hashing spec: %w", err)
	}
	suiteHash, err := canon.Hash(a.Suite)
	if err != nil {
		return nil, fmt.Errorf("mutation: hashing suite: %w", err)
	}
	optHash, err := a.Exec.ResultFingerprint()
	if err != nil {
		return nil, fmt.Errorf("mutation: fingerprinting options: %w", err)
	}
	return &cacheState{base: store.Key{
		Kind:    store.KindMutantVerdict,
		Spec:    specHash,
		Suite:   suiteHash,
		Seed:    a.Exec.Seed,
		Options: optHash,
	}}, nil
}

// Run executes the analysis over the given mutants. It fails fast if the
// original (unmutated) run does not complete cleanly — an unreliable
// reference invalidates every verdict.
func (a *Analysis) Run(mutants []mutation.Mutant) (*Result, error) {
	if a.Engine == nil || a.Factory == nil || a.Suite == nil {
		return nil, errors.New("mutation: analysis requires engine, factory and suite")
	}
	cache, err := a.cacheState()
	if err != nil {
		return nil, err
	}
	a.Engine.Deactivate()
	// Under pool isolation with no pool given, the reference run and every
	// mutant share one warm pool of PoolSize (else Parallelism) workers, so a
	// worker executes many mutants between restarts; each batch's isolation
	// context re-arms its mutant child-side. The run works on a copy.
	if a.Exec.Isolation == testexec.IsolatePool && a.Exec.WorkerPool == nil {
		size := a.Exec.PoolSize
		if size <= 0 {
			size = a.Parallelism
		}
		p, err := testexec.NewWorkerPool(a.Exec, size)
		if err != nil {
			return nil, fmt.Errorf("mutation: building worker pool: %w", err)
		}
		defer p.Close()
		run := *a
		run.Exec.WorkerPool = p
		a = &run
	}
	// The campaign span roots the whole analysis: the reference run and
	// every mutant hang under it. Trace/Metrics ride on a.Exec so the same
	// Options plumbing reaches suites, cases and isolated children.
	campaign := a.Exec.Trace.Start(a.Exec.TraceParent, obs.KindCampaign, a.Suite.Component)
	campaign.SetAttr("mutants", strconv.Itoa(len(mutants)))
	defer campaign.End()
	refOpts := a.Exec
	refOpts.Oracle = nil
	refSpan := a.Exec.Trace.Start(campaign.ID(), obs.KindReference, a.Suite.Component)
	refOpts.TraceParent = refSpan.ID()
	ref, err := testexec.Run(a.Suite, a.Factory, refOpts)
	refSpan.End()
	if err != nil {
		return nil, fmt.Errorf("mutation: reference run: %w", err)
	}
	for _, res := range ref.Results {
		if res.Outcome == testexec.OutcomeError {
			return nil, fmt.Errorf("mutation: reference run has harness error in %s: %s", res.CaseID, res.Detail)
		}
	}
	golden := testexec.NewGolden(ref)

	out := &Result{Component: a.Suite.Component, Reference: ref}
	results := make([]MutantResult, len(mutants))
	err = fanout.Run(len(mutants), a.Parallelism, a.worker, func(w mutantWorker, i int) error {
		res, err := a.runMutant(w.eng, w.factory, mutants[i], golden, campaign.ID(), cache)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	if cache != nil {
		out.CacheHits = int(cache.hits.Load())
		out.CacheMisses = int(cache.misses.Load())
	}
	seenOps := map[mutation.Operator]bool{}
	for i, res := range results {
		m := mutants[i]
		if !seenOps[m.Operator] {
			seenOps[m.Operator] = true
			out.Operators = append(out.Operators, m.Operator)
		}
		out.Mutants = append(out.Mutants, res)
		if a.Progress != nil {
			status := "ALIVE"
			if res.Killed {
				status = "killed by " + res.Reason.String()
			} else if res.Equivalent() {
				status = "ALIVE (equivalence candidate)"
			}
			fmt.Fprintf(a.Progress, "%-60s %s\n", m.ID, status)
		}
	}
	sort.Slice(out.Operators, func(i, j int) bool { return out.Operators[i] < out.Operators[j] })
	return out, nil
}

// mutantWorker is the engine and factory one campaign worker activates its
// mutants on.
type mutantWorker struct {
	eng     *mutation.Engine
	factory component.Factory
}

// worker sets up one worker of a campaign run on the given number of
// workers. A lone worker uses the campaign's own Engine and Factory; with
// more, an engine holds only one active mutant at a time, so each worker
// gets a private engine clone and a factory bound to it.
func (a *Analysis) worker(_, workers int) (mutantWorker, error) {
	if workers == 1 {
		return mutantWorker{a.Engine, a.Factory}, nil
	}
	if a.NewFactory == nil {
		return mutantWorker{}, errors.New("mutation: parallel analysis requires NewFactory")
	}
	eng := a.Engine.Clone()
	return mutantWorker{eng, a.NewFactory(eng)}, nil
}

// runMutant decides one mutant on the given engine/factory pair. With a
// verdict store configured it first looks the mutant up by content address
// and, on a hit, replays the recorded verdict without executing the suite;
// a miss executes and records the verdict. Either way the verdict reaches
// the mutant span and the metrics through recordVerdict.
func (a *Analysis) runMutant(eng *mutation.Engine, factory component.Factory, m mutation.Mutant, golden *testexec.Golden, campaignSpan obs.SpanID, cache *cacheState) (MutantResult, error) {
	span := a.Exec.Trace.Start(campaignSpan, obs.KindMutant, m.ID)
	span.SetAttr("operator", m.Operator.String())
	defer span.End()
	met := a.Exec.Metrics
	var key store.Key
	if cache != nil {
		mhash, err := m.Hash()
		if err != nil {
			return MutantResult{}, fmt.Errorf("mutation: hashing mutant %s: %w", m.ID, err)
		}
		key = cache.base
		key.Mutant = mhash
		var v store.Verdict
		// A lookup error (corrupt entry) is a miss: the campaign re-executes
		// and the Put below repairs the entry.
		if hit, _ := a.Store.Get(key, &v); hit {
			cache.hits.Add(1)
			met.Inc("mutant.cache-hit", 1)
			span.SetAttr("cached", "true")
			res := MutantResult{
				Mutant:      m,
				Killed:      v.Killed,
				Reason:      KillReason(v.Reason),
				KillingCase: v.KillingCase,
				Reached:     v.Reached,
				Infected:    v.Infected,
			}
			a.recordVerdict(span, res)
			return res, nil
		}
		cache.misses.Add(1)
		met.Inc("mutant.cache-miss", 1)
	}

	var began time.Time
	if met != nil {
		began = time.Now()
	}
	res, killing, err := a.execute(eng, factory, m, golden, span.ID())
	if err != nil {
		return MutantResult{}, err
	}
	a.recordVerdict(span, res)
	if res.Killed {
		span.SetAttr("killingOutcome", killing.String())
		if met != nil {
			// Per-operator kill latency: wall time from activation to
			// verdict, labelled by mutant so the slowest kills are visible.
			met.Observe("mutant.kill-latency."+m.Operator.String(), m.ID, time.Since(began))
		}
	}
	if cache != nil {
		v := store.Verdict{
			Killed:      res.Killed,
			Reason:      int(res.Reason),
			KillingCase: res.KillingCase,
			Reached:     res.Reached,
			Infected:    res.Infected,
		}
		// A verdict we computed but cannot record poisons the next warm run's
		// accounting, so a Put failure is a campaign error, not a warning.
		if err := a.Store.Put(key, v); err != nil {
			return MutantResult{}, fmt.Errorf("mutation: recording verdict for %s: %w", m.ID, err)
		}
	}
	return res, nil
}

// recordVerdict writes a verdict, replayed or executed alike, into the
// mutant span's attributes and the mutant.* counters.
func (a *Analysis) recordVerdict(span *obs.ActiveSpan, res MutantResult) {
	span.SetAttr("killed", strconv.FormatBool(res.Killed))
	met := a.Exec.Metrics
	switch {
	case res.Killed:
		span.SetAttr("reason", res.Reason.String())
		span.SetAttr("killingCase", res.KillingCase)
		met.Inc("mutant.killed", 1)
		met.Inc("mutant.kill."+res.Reason.String(), 1)
	case res.Equivalent():
		span.SetAttr("equivalent", "true")
		met.Inc("mutant.equivalent", 1)
	default:
		met.Inc("mutant.alive", 1)
	}
}

// execute runs the suite against mutant m armed on eng and judges it by
// the paper's three criteria against the golden reference. It returns the
// verdict and, for a killed mutant, the killing case's outcome.
func (a *Analysis) execute(eng *mutation.Engine, factory component.Factory, m mutation.Mutant, golden *testexec.Golden, parent obs.SpanID) (MutantResult, testexec.Outcome, error) {
	if err := eng.Activate(m); err != nil {
		return MutantResult{}, 0, fmt.Errorf("mutation: %w", err)
	}
	defer eng.Deactivate()
	opts := a.Exec
	opts.Oracle = nil // compare via golden.Differs below, on full results
	opts.TraceParent = parent
	isolated := opts.Isolation == testexec.IsolateSubprocess || opts.Isolation == testexec.IsolatePool
	if isolated {
		// The mutant executes inside the case server, not in this process:
		// ship it through the opaque isolation context so the child's
		// resolver can re-arm it on its own engine.
		raw, err := json.Marshal(IsolationContext{Mutant: &m})
		if err != nil {
			return MutantResult{}, 0, fmt.Errorf("mutation: encoding mutant %s for isolation: %w", m.ID, err)
		}
		opts.IsolationContext = raw
	}
	recs, err := testexec.RunRecords(a.Suite, factory, opts)
	if err != nil {
		return MutantResult{}, 0, fmt.Errorf("mutation: mutant %s: %w", m.ID, err)
	}
	res := MutantResult{Mutant: m, Reached: eng.Reached(), Infected: eng.Infected()}
	if isolated {
		// Reach/infection happened in the children; reconstruct the flags
		// from the per-case Extra payloads. A case that died fatally ships
		// no flags — reaching a fault that kills the process still counts,
		// but only via cases that lived to report, so fatal mutants rely on
		// the crash kill, not the equivalence bookkeeping.
		for _, rec := range recs {
			var f CaseFlags
			if extra := rec.Result.Extra; len(extra) > 0 && json.Unmarshal(extra, &f) == nil {
				res.Reached = res.Reached || f.Reached
				res.Infected = res.Infected || f.Infected
			}
		}
	}
	for _, rec := range recs {
		caseRes := rec.Result
		refOutcome := golden.Outcomes[caseRes.CaseID]
		switch {
		case caseRes.Outcome == testexec.OutcomePanic && refOutcome != testexec.OutcomePanic.String():
			res.Reason = KillCrash
		case caseRes.Outcome == testexec.OutcomeTimeout && refOutcome != testexec.OutcomeTimeout.String():
			// A hanging mutant is killed by timeout — the paper's testbed
			// equivalent of criterion (i), "the program crashed".
			res.Reason = KillCrash
		case caseRes.Outcome == testexec.OutcomeResourceExhausted && refOutcome != testexec.OutcomeResourceExhausted.String():
			// A mutant that burns the step budget or floods the transcript
			// is a runaway caught at a deterministic point — criterion (i)
			// again, like the timeout, but reproducible bit-for-bit.
			res.Reason = KillCrash
		case caseRes.Outcome == testexec.OutcomeViolation && refOutcome != testexec.OutcomeViolation.String():
			res.Reason = KillAssertion
		case golden.Differs(caseRes):
			res.Reason = KillOutputDiff
		default:
			continue
		}
		res.Killed, res.KillingCase = true, caseRes.CaseID
		return res, caseRes.Outcome, nil
	}
	return res, 0, nil
}

// OperatorRow is one line of the paper's Tables 2/3: per-operator totals.
type OperatorRow struct {
	Operator   mutation.Operator
	Mutants    int
	Killed     int
	Equivalent int
}

// Score is the mutation score: killed / (mutants - equivalent). It returns
// 1 when there are no scoreable mutants.
func (r OperatorRow) Score() float64 {
	denom := r.Mutants - r.Equivalent
	if denom <= 0 {
		return 1
	}
	return float64(r.Killed) / float64(denom)
}

// Table is the Tables 2/3 data structure: per-method mutant counts, then
// per-operator kill totals and scores.
type Table struct {
	Component string
	// MethodCounts[method][operator] is the number of mutants generated.
	MethodCounts map[string]map[mutation.Operator]int
	Methods      []string // sorted
	Rows         []OperatorRow
	Total        OperatorRow // operator field unset
	// KillsByReason breaks down the kills (the paper: "from the 652 mutants
	// killed, 59 were due to assertion violation").
	KillsByReason map[KillReason]int
}

// Tabulate builds the Tables 2/3 summary from an analysis result.
func (r *Result) Tabulate() *Table {
	t := &Table{
		Component:     r.Component,
		MethodCounts:  map[string]map[mutation.Operator]int{},
		KillsByReason: map[KillReason]int{},
	}
	rows := map[mutation.Operator]*OperatorRow{}
	for _, op := range mutation.AllOperators {
		rows[op] = &OperatorRow{Operator: op}
	}
	methodSeen := map[string]bool{}
	for _, mr := range r.Mutants {
		op := mr.Mutant.Operator
		row, ok := rows[op]
		if !ok {
			row = &OperatorRow{Operator: op}
			rows[op] = row
		}
		row.Mutants++
		if mr.Killed {
			row.Killed++
			t.KillsByReason[mr.Reason]++
		} else if mr.Equivalent() {
			row.Equivalent++
		}
		method := mr.Mutant.Method
		if !methodSeen[method] {
			methodSeen[method] = true
			t.Methods = append(t.Methods, method)
		}
		if t.MethodCounts[method] == nil {
			t.MethodCounts[method] = map[mutation.Operator]int{}
		}
		t.MethodCounts[method][op]++
	}
	sort.Strings(t.Methods)
	for _, op := range mutation.AllOperators {
		row := rows[op]
		if row.Mutants == 0 {
			continue
		}
		t.Rows = append(t.Rows, *row)
		t.Total.Mutants += row.Mutants
		t.Total.Killed += row.Killed
		t.Total.Equivalent += row.Equivalent
	}
	return t
}

// Render prints the table in the paper's layout.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Results obtained for the %s class\n", t.Component)
	fmt.Fprintf(&b, "%-12s", "Method")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, " %14s", row.Operator)
	}
	fmt.Fprintf(&b, " %8s\n", "Total")
	for _, m := range t.Methods {
		fmt.Fprintf(&b, "%-12s", m)
		rowTotal := 0
		for _, row := range t.Rows {
			n := t.MethodCounts[m][row.Operator]
			rowTotal += n
			fmt.Fprintf(&b, " %14d", n)
		}
		fmt.Fprintf(&b, " %8d\n", rowTotal)
	}
	fmt.Fprintf(&b, "%-12s", "#mutants")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, " %14d", row.Mutants)
	}
	fmt.Fprintf(&b, " %8d\n", t.Total.Mutants)
	fmt.Fprintf(&b, "%-12s", "#killed")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, " %14d", row.Killed)
	}
	fmt.Fprintf(&b, " %8d\n", t.Total.Killed)
	fmt.Fprintf(&b, "%-12s", "#equivalent")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, " %14d", row.Equivalent)
	}
	fmt.Fprintf(&b, " %8d\n", t.Total.Equivalent)
	fmt.Fprintf(&b, "%-12s", "Score")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, " %13.1f%%", row.Score()*100)
	}
	fmt.Fprintf(&b, " %7.1f%%\n", t.Total.Score()*100)
	if n := t.KillsByReason[KillAssertion]; n > 0 {
		fmt.Fprintf(&b, "(%d of %d kills due to assertion violation, %d to crash, %d to output difference)\n",
			n, t.Total.Killed, t.KillsByReason[KillCrash], t.KillsByReason[KillOutputDiff])
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("mutation: rendering table: %w", err)
	}
	return nil
}
