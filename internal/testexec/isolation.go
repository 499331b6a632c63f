// Crash containment in child processes. In-process execution recovers
// panics, but Go offers no recovery from a fatal runtime error — stack
// exhaustion, out-of-memory — and none from code that calls os.Exit; any of
// those in one mutant kills the whole campaign. Both child modes therefore
// run cases in case-server processes (the hidden `concat run-case`
// subcommand, or any binary that calls ServeFromEnv when ServerEnv is set)
// and classify a child's fatal death from its exit status into
// OutcomePanic — the paper's criterion (i), "the program crashed while
// running the test cases", surviving the crash it records.
//
// There is one child-process path, the batch dispatcher in pool_exec.go,
// with two recycle policies: IsolateSubprocess sends one case per batch and
// discards the worker afterwards, so every case gets a fresh process;
// IsolatePool keeps workers warm across batches and recycles one only when
// it crashes, blows its deadline, or finishes a batch dirty.
package testexec

import (
	"encoding/json"
	"math"
	"time"

	"concat/internal/component"
	"concat/internal/domain"
)

// DefaultIsolationBackstop is the parent-side kill deadline for an
// isolated case when no CaseTimeout is configured. Without it a child
// wedged in a hard loop (no cooperative timeout to trip) would hang the
// campaign forever — the parent must always hold a deadline of last
// resort.
const DefaultIsolationBackstop = 30 * time.Second

// isolationDeadline computes the parent backstop for one isolated case.
// An explicit Options.IsolationBackstop wins; otherwise the backstop is
// derived from CaseTimeout (double it, plus slack for process startup),
// falling back to DefaultIsolationBackstop when no CaseTimeout is set.
func isolationDeadline(opts Options) time.Duration {
	if opts.IsolationBackstop > 0 {
		return opts.IsolationBackstop
	}
	if opts.CaseTimeout > 0 {
		const slack = 30 * time.Second
		if opts.CaseTimeout > (math.MaxInt64-slack)/2 {
			// Saturate: a huge CaseTimeout must not wrap into a negative
			// deadline that kills every child at once.
			return math.MaxInt64
		}
		return 2*opts.CaseTimeout + slack
	}
	return DefaultIsolationBackstop
}

// IsolationMode selects how the executor contains crashes.
type IsolationMode int

const (
	// IsolateInProcess (the default) runs cases in the harness process;
	// panics are recovered, but fatal runtime errors and os.Exit are not
	// survivable.
	IsolateInProcess IsolationMode = iota
	// IsolateSubprocess runs every case in its own child process: batches
	// of one case, each on a fresh case server (ServeCaseBatches) that is
	// discarded afterwards. Fatal failures become per-case OutcomePanic
	// results classified from the exit status.
	IsolateSubprocess
	// IsolatePool keeps the subprocess containment but amortizes process
	// startup: cases are dispatched in batches to a pool of long-lived
	// worker processes, each case still executing against a freshly
	// resolved component. Workers are restarted only on crash, deadline
	// kill, or a dirty batch, and a mid-batch death consumes exactly the
	// in-flight case — classifications are byte-identical to
	// IsolateSubprocess.
	IsolatePool
)

// ServerEnv is the environment sentinel the executor sets when spawning a
// case server. A binary that wants to be usable as its own sandbox calls
// ServeFromEnv first thing in main (or TestMain).
const ServerEnv = "CONCAT_CASE_SERVER"

// Resolved is a Resolver's answer: the factory to run the case against,
// the providers completing its structured parameters, and an optional
// Finish hook whose return value travels back to the parent in
// CaseResult.Extra (mutation analysis ships reach/infection flags this
// way).
type Resolved struct {
	Factory   component.Factory
	Providers map[string]domain.Provider
	Finish    func() json.RawMessage
}

// Resolver maps a component name plus the run's opaque isolation context
// onto the component to execute. It runs inside the case server process.
type Resolver func(componentName string, context json.RawMessage) (Resolved, error)
