// Subprocess-isolation support for the built-in targets: the resolver a
// `concat run-case` case server uses to rebuild the component under test —
// optionally with a mutant re-armed on a fresh engine — inside the child
// process, and the main() hook that turns any binary linking core into its
// own crash-containment sandbox.
package core

import (
	"encoding/json"
	"fmt"
	"os"

	"concat/internal/analysis"
	"concat/internal/mutation"
	"concat/internal/testexec"
)

// CaseResolver returns the testexec.Resolver for the built-in study
// subjects. The isolation context, when present, carries the shape mutation
// analysis ships (analysis.IsolationContext): an armed mutant to re-activate
// on a child-local engine. The resolver then wires the engine's
// reach/infection record back to the parent through Resolved.Finish.
func CaseResolver() testexec.Resolver {
	return func(componentName string, context json.RawMessage) (testexec.Resolved, error) {
		t, err := LookupTarget(componentName)
		if err != nil {
			return testexec.Resolved{}, err
		}
		var ctx analysis.IsolationContext
		if len(context) > 0 {
			if err := json.Unmarshal(context, &ctx); err != nil {
				return testexec.Resolved{}, fmt.Errorf("core: decoding isolation context: %w", err)
			}
		}
		if ctx.Mutant == nil {
			comp := t.New(nil)
			return testexec.Resolved{Factory: comp.Factory, Providers: comp.Providers}, nil
		}
		if len(t.Sites) == 0 {
			return testexec.Resolved{}, fmt.Errorf("core: component %q has no mutation instrumentation", componentName)
		}
		eng := mutation.NewEngine()
		for _, s := range t.Sites {
			if err := eng.RegisterSite(s); err != nil {
				return testexec.Resolved{}, fmt.Errorf("core: %w", err)
			}
		}
		if err := eng.Activate(*ctx.Mutant); err != nil {
			return testexec.Resolved{}, fmt.Errorf("core: arming mutant in case server: %w", err)
		}
		comp := t.New(eng)
		return testexec.Resolved{
			Factory:   comp.Factory,
			Providers: comp.Providers,
			Finish: func() json.RawMessage {
				raw, _ := json.Marshal(analysis.CaseFlags{
					Reached:  eng.Reached(),
					Infected: eng.Infected(),
				})
				return raw
			},
		}, nil
	}
}

// MaybeServeCase checks the executor's ServerEnv sentinel and, when set,
// turns the current process into a case server on stdin/stdout and exits.
// Call it first thing in main() of any binary that should be usable as its
// own sandbox; it returns (doing nothing) in a normal invocation.
func MaybeServeCase() {
	served, err := testexec.ServeFromEnv(os.Stdin, os.Stdout, CaseResolver())
	if !served {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "concat case server:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
