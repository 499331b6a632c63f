// Package impact is the test-impact analysis engine: given two revisions of
// a component's t-spec, it computes exactly which test cases the edit
// invalidates, re-executes only those, and replays everything else from the
// content-addressed verdict store — producing a final report and coverage
// artifact byte-identical to a cold full run on the new spec.
//
// The partition has three classes, decided per case of the new spec's
// generated suite:
//
//   - kept: the case exists byte-identically in the old suite and exercises
//     no impacted method — its cached result replays warm (a miss executes
//     and backfills the store);
//   - rerun: the case is byte-identical too, but one of its methods is in
//     the impact set (redefined implementation, changed domain, modified
//     attribute) — recorded behavior can no longer be trusted, so it
//     executes fresh even when a cached entry exists;
//   - regenerated: the case's content differs from the old suite (or has no
//     old counterpart): changed domains resampled its arguments or the TFM
//     edit moved its transaction — it executes fresh.
//
// Because the driver seeds each transaction's RNG stream independently
// (driver.Generate), an edit localized to one method perturbs only the
// transactions that exercise it; everything else stays byte-identical and
// replays warm. Per-case results are stored under store.KindCaseResult keys
// addressed by the case's own canonical hash, so reuse survives arbitrary
// spec edits — unlike whole-suite report keys, which any edit moves.
package impact

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"concat/internal/bit"
	"concat/internal/component"
	"concat/internal/core/canon"
	"concat/internal/cover"
	"concat/internal/domain"
	"concat/internal/driver"
	"concat/internal/fanout"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

// Decision classifies one case of the new suite.
type Decision string

// Case decisions.
const (
	DecisionKept        Decision = "kept"
	DecisionRerun       Decision = "rerun"
	DecisionRegenerated Decision = "regenerated"
)

// caseEntry is the stored form of one case's execution: the per-case slice
// of a testexec.Report. Sites and Abandoned carry the case's contribution to
// the report-level BIT telemetry and goroutine-leak count, so a report
// reassembled from entries is byte-identical to one produced by a full run.
type caseEntry struct {
	Result    testexec.CaseResult `json:"result"`
	Sites     []bit.SiteRecord    `json:"sites,omitempty"`
	Abandoned int                 `json:"abandoned,omitempty"`
}

// Runner configures impact-driven re-runs of one component.
type Runner struct {
	// Factory builds the component under test; its Name must match the new
	// spec's class.
	Factory component.Factory
	// Providers complete structured-parameter holes (object/pointer domains).
	Providers map[string]domain.Provider
	// Gen configures suite generation; the same options are applied to the
	// old and new specs so the diff compares like with like.
	Gen driver.Options
	// Exec configures execution of invalidated cases. The runner executes
	// each case as its own single-case run (results are position-independent
	// by the CaseSeed contract), so Exec.Parallelism has nothing to fan out
	// and Run rejects a non-zero value; Runner.Parallelism fans the cases
	// out. LogWriter and LeakLedger are ignored — per-case logs would
	// interleave and a shared ledger's delta windows would race.
	Exec testexec.Options
	// Store is the verdict store backing warm replay; disabled (nil) makes
	// every case execute. An Oracle in Exec also disables replay: an
	// oracle's behaviour cannot be fingerprinted into the key.
	Store store.Backend
	// Parallelism is the number of workers the invalidated cases fan out
	// over (internal/fanout); <=0 uses GOMAXPROCS. A failing run takes no
	// further case and returns the error of the lowest-indexed failing case.
	Parallelism int
	// MutantMethods is the method name of every mutant enumerable for the
	// component (one entry per mutant, duplicates expected). Used only for
	// accounting: mutants of impacted methods are reported invalidated.
	MutantMethods []string
}

// Result is everything an impact run produces.
type Result struct {
	// Report is the impact artifact: the partition and its attribution.
	Report *Report
	// Final is the reassembled suite report, byte-identical to a cold
	// testexec.Run of Suite on the new spec.
	Final *testexec.Report
	// Coverage is the coverage artifact of the final report against the new
	// spec's TFM, byte-identical to a cold run's.
	Coverage *cover.Artifact
	// Suite is the suite generated from the new spec.
	Suite *driver.Suite
}

// Run diffs the two spec revisions, partitions the new suite, executes the
// invalidated part and replays the rest warm. Per-case failures are recorded
// in the final report as usual; Run fails only on harness-level errors
// (invalid specs, factory mismatch, store write failures).
func (r *Runner) Run(oldSpec, newSpec *tspec.Spec) (*Result, error) {
	if r.Factory == nil {
		return nil, errors.New("impact: nil factory")
	}
	if r.Exec.Parallelism != 0 {
		return nil, errors.New("impact: Exec.Parallelism has no effect (every case runs as its own suite); set Runner.Parallelism")
	}
	if newSpec.Class.Name != r.Factory.Name() {
		return nil, fmt.Errorf("impact: new spec is for %q but factory builds %q",
			newSpec.Class.Name, r.Factory.Name())
	}
	oldSuite, err := driver.Generate(oldSpec, r.Gen)
	if err != nil {
		return nil, fmt.Errorf("impact: generating old suite: %w", err)
	}
	newSuite, err := driver.Generate(newSpec, r.Gen)
	if err != nil {
		return nil, fmt.Errorf("impact: generating new suite: %w", err)
	}
	delta := tspec.DiffSpecs(oldSpec, newSpec)
	impacted := delta.ImpactedSet()

	exec := r.Exec
	if exec.Providers == nil {
		exec.Providers = r.Providers
	}
	exec.LogWriter = nil
	exec.LeakLedger = nil
	cacheable := store.Enabled(r.Store) && exec.Oracle == nil
	fp, err := exec.ResultFingerprint()
	if err != nil {
		return nil, fmt.Errorf("impact: fingerprinting options: %w", err)
	}

	oldHash, err := oldSpec.CanonicalHash()
	if err != nil {
		return nil, fmt.Errorf("impact: hashing old spec: %w", err)
	}
	newHash, err := newSpec.CanonicalHash()
	if err != nil {
		return nil, fmt.Errorf("impact: hashing new spec: %w", err)
	}

	// Classify every case of the new suite and replay what we can.
	tasks := make([]task, len(newSuite.Cases))
	hits := 0
	for i, tc := range newSuite.Cases {
		caseHash, err := canon.Hash(tc)
		if err != nil {
			return nil, fmt.Errorf("impact: hashing case %s: %w", tc.ID, err)
		}
		t := &tasks[i]
		t.tc = tc
		t.key = store.Key{
			Kind:    store.KindCaseResult,
			Spec:    newSuite.Component,
			Suite:   caseHash,
			Seed:    exec.Seed,
			Options: fp,
		}
		t.info = CaseImpact{CaseID: tc.ID, Transaction: tc.Transaction}

		oldTC, inOld := oldSuite.CaseByID(tc.ID)
		sameBytes := false
		if inOld {
			h, err := canon.Hash(oldTC)
			if err != nil {
				return nil, fmt.Errorf("impact: hashing old case %s: %w", tc.ID, err)
			}
			sameBytes = h == caseHash
		}
		switch {
		case sameBytes && !touchesImpacted(tc, impacted):
			t.info.Decision = DecisionKept
			if cacheable {
				// A lookup error (corrupt entry) is a miss; the Put after
				// execution repairs it.
				if hit, _ := r.Store.Get(t.key, &t.entry); hit {
					t.info.Warm = true
					hits++
					continue
				}
			}
			t.info.Reason = "cold store"
			t.run = true
		case sameBytes:
			t.info.Decision = DecisionRerun
			t.info.Reason = impactReason(tc, impacted, delta)
			t.run = true
		default:
			t.info.Decision = DecisionRegenerated
			t.info.Reason = regenerationReason(tc, inOld, impacted, delta)
			t.run = true
		}
	}

	// Execute the invalidated partition. Each case runs as its own suite —
	// by the CaseSeed contract its result is identical to the same case
	// inside a full run — fanned over Parallelism workers, and each fresh
	// result is recorded in the store. Under pool isolation one warm worker
	// pool is shared across all runs.
	if exec.Isolation == testexec.IsolatePool && exec.WorkerPool == nil {
		size := exec.PoolSize
		if size <= 0 {
			size = r.parallelism()
		}
		p, err := testexec.NewWorkerPool(exec, size)
		if err != nil {
			return nil, fmt.Errorf("impact: provisioning worker pool: %w", err)
		}
		exec.WorkerPool = p
		defer p.Close()
	}
	var pending []int
	for i := range tasks {
		if tasks[i].run {
			pending = append(pending, i)
		}
	}
	err = fanout.Run(len(pending), r.parallelism(), nil, func(_ struct{}, j int) error {
		t := &tasks[pending[j]]
		one := &driver.Suite{
			Component: newSuite.Component,
			Seed:      newSuite.Seed,
			Criterion: newSuite.Criterion,
			Cases:     []driver.TestCase{t.tc},
		}
		rep, err := testexec.Run(one, r.Factory, exec)
		if err != nil {
			return err
		}
		if len(rep.Results) != 1 {
			return fmt.Errorf("impact: case %s produced %d results", t.tc.ID, len(rep.Results))
		}
		t.entry = caseEntry{
			Result:    rep.Results[0],
			Sites:     rep.BITSites,
			Abandoned: rep.AbandonedGoroutines,
		}
		if cacheable {
			return r.Store.Put(t.key, t.entry)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reassemble the final report in suite order: results concatenate,
	// per-case BIT telemetry merges (order-insensitive, like a full run's
	// per-case merge), abandonment counts sum.
	final := &testexec.Report{Component: newSuite.Component}
	tel := bit.NewTelemetry()
	for i := range tasks {
		final.Results = append(final.Results, tasks[i].entry.Result)
		tel.MergeRecords(tasks[i].entry.Sites)
		final.AbandonedGoroutines += tasks[i].entry.Abandoned
	}
	final.BITSites = tel.Records()

	g, err := newSpec.TFM()
	if err != nil {
		return nil, fmt.Errorf("impact: lowering new spec: %w", err)
	}
	art, err := cover.FromRun(g, newSuite, final)
	if err != nil {
		return nil, fmt.Errorf("impact: computing coverage: %w", err)
	}

	rep := &Report{
		Version:     Version,
		Component:   newSuite.Component,
		Seed:        newSuite.Seed,
		OldSpecHash: oldHash,
		NewSpecHash: newHash,
		Delta:       delta,
		CacheHits:   hits,
		CacheMisses: len(pending),
	}
	for i := range tasks {
		rep.Cases = append(rep.Cases, tasks[i].info)
		switch tasks[i].info.Decision {
		case DecisionKept:
			rep.Kept++
		case DecisionRerun:
			rep.Rerun++
		case DecisionRegenerated:
			rep.Regenerated++
		}
	}
	rep.Transactions = transactionImpacts(rep.Cases)
	for _, m := range r.MutantMethods {
		if impacted[m] {
			rep.MutantsInvalidated++
		} else {
			rep.MutantsKept++
		}
	}
	return &Result{Report: rep, Final: final, Coverage: art, Suite: newSuite}, nil
}

func (r *Runner) parallelism() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// task is one case of the new suite moving through classification,
// execution/replay and reassembly.
type task struct {
	tc    driver.TestCase
	key   store.Key
	entry caseEntry
	info  CaseImpact
	run   bool // needs execution
}

// touchesImpacted reports whether any of the case's methods is impacted.
func touchesImpacted(tc driver.TestCase, impacted map[string]bool) bool {
	for _, m := range tc.Methods() {
		if impacted[m] {
			return true
		}
	}
	return false
}

// impactReason attributes a rerun decision: the impacted methods the case
// exercises, each with the delta's recorded reason.
func impactReason(tc driver.TestCase, impacted map[string]bool, delta tspec.SpecDelta) string {
	var parts []string
	for _, m := range tc.Methods() {
		if impacted[m] {
			parts = append(parts, m+" "+delta.ImpactedReason(m))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// regenerationReason attributes a regenerated decision.
func regenerationReason(tc driver.TestCase, inOld bool, impacted map[string]bool, delta tspec.SpecDelta) string {
	if !inOld {
		if delta.ModelChanged {
			return "no old counterpart (model changed)"
		}
		return "no old counterpart"
	}
	if s := impactReason(tc, impacted, delta); s != "" {
		return "content changed: " + s
	}
	if delta.ModelChanged {
		return "content changed (model changed)"
	}
	return "content changed"
}

// transactionImpacts groups case decisions by transaction, in suite order of
// first appearance.
func transactionImpacts(cases []CaseImpact) []TransactionImpact {
	index := map[string]int{}
	var out []TransactionImpact
	for _, c := range cases {
		i, ok := index[c.Transaction]
		if !ok {
			i = len(out)
			index[c.Transaction] = i
			out = append(out, TransactionImpact{Transaction: c.Transaction})
		}
		t := &out[i]
		switch c.Decision {
		case DecisionKept:
			t.Kept++
		case DecisionRerun:
			t.Rerun++
		case DecisionRegenerated:
			t.Regenerated++
		}
		if c.Reason != "" && c.Reason != "cold store" && !contains(t.Reasons, c.Reason) {
			t.Reasons = append(t.Reasons, c.Reason)
		}
	}
	for i := range out {
		sort.Strings(out[i].Reasons)
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
