// Package sandbox is the execution-hardening layer under the test executor:
// the paper's mutant-kill criterion (i) — "the program crashed while running
// the test cases" — only works if the harness itself survives arbitrarily
// hostile code under test. The substrates here let the executor convert
// fatal behaviour into recorded per-case outcomes instead of harness
// failures:
//
//   - Budget: cooperative step/allocation budgets, charged by the executor's
//     call dispatch and by the BIT access-control guard, so a runaway
//     component is stopped at a deterministic point.
//   - Ledger: a goroutine-leak ledger. Go cannot kill a runaway goroutine,
//     so a timed-out case's goroutine is abandoned; the ledger counts the
//     abandonments (and the eventual completions) instead of losing track
//     of them.
//   - Retry: deterministic retry with exponential backoff for harness-level
//     transient errors (subprocess spawn failure, fork contention).
//   - SummarizeFatal: the deterministic one-line classification of a child
//     process's abnormal exit. The worker pool (package pool), which runs
//     the executor's crash-containment case servers, classifies every dead
//     worker with it.
//
// Everything here is deliberately free of policy: the executor decides what
// a budget covers and how an exit status maps onto a case outcome; sandbox
// provides the mechanisms and keeps their behaviour reproducible.
package sandbox

import (
	"errors"
	"fmt"
)

// ExhaustedError reports that a sandbox resource budget ran out. The
// executor classifies it as a resource-exhaustion case outcome rather than
// a harness error: running out of budget is a verdict on the code under
// test, not on the harness.
type ExhaustedError struct {
	// Resource names the exhausted dimension: "step", "alloc", "transcript".
	Resource string
	// Limit is the configured budget.
	Limit int64
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("sandbox: %s budget exhausted (limit %d)", e.Resource, e.Limit)
}

// IsExhausted reports whether err carries an ExhaustedError anywhere in its
// chain.
func IsExhausted(err error) bool {
	var ex *ExhaustedError
	return errors.As(err, &ex)
}
