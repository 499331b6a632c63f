package testexec

import "concat/internal/core/canon"

// resultOptions is the subset of Options that can change a report's
// CONTENTS. Everything else — parallelism, isolation mode, tracing,
// metrics, log sinks, backstops, and the warm-pool knobs
// (PoolSize, BatchSize, WorkerPool) — is determinism-neutral by the
// executor's contract (reports are byte-identical across those knobs),
// so it stays out of the fingerprint and a verdict cached under one
// configuration serves all of them. Seed is excluded too: it is its own
// field in a store key.
type resultOptions struct {
	SkipInvariantChecks bool  `json:"skipInvariantChecks,omitempty"`
	SkipReporter        bool  `json:"skipReporter,omitempty"`
	StepBudget          int64 `json:"stepBudget,omitempty"`
	MaxTranscriptBytes  int64 `json:"maxTranscriptBytes,omitempty"`
	CaseTimeoutNS       int64 `json:"caseTimeoutNs,omitempty"`
}

// ResultFingerprint returns the canonical hash of the result-relevant
// execution options — the options component of a verdict-store key
// (internal/store). Two Options values with the same fingerprint and seed
// produce byte-identical reports for the same suite and component.
//
// The Oracle and Providers fields are NOT fingerprinted: callers that cache
// must either leave them nil or guarantee they are a pure function of the
// component identity already hashed into the key (true for the built-in
// targets' provider maps).
func (o Options) ResultFingerprint() (string, error) {
	return canon.Hash(resultOptions{
		SkipInvariantChecks: o.SkipInvariantChecks,
		SkipReporter:        o.SkipReporter,
		StepBudget:          o.StepBudget,
		MaxTranscriptBytes:  o.MaxTranscriptBytes,
		CaseTimeoutNS:       int64(o.CaseTimeout),
	})
}
