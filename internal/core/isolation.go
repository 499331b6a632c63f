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
	"sync"

	"concat/internal/analysis"
	"concat/internal/mutation"
	"concat/internal/testexec"
)

// CaseResolver returns the testexec.Resolver for the built-in study
// subjects. The isolation context, when present, carries the shape mutation
// analysis ships (analysis.IsolationContext): an armed mutant to re-activate
// on a child-local engine. The resolver then wires the engine's
// reach/infection record back to the parent through Resolved.Finish.
//
// A case server resolves every case of a batch with the batch's context, so
// the resolver decodes a context once and keeps an unarmed engine over the
// component's sites; each case still gets its own clone of it, freshly
// armed, and a fresh factory, so its flags are its own.
func CaseResolver() testexec.Resolver {
	var (
		mu   sync.Mutex
		last resolution
	)
	return func(componentName string, context json.RawMessage) (testexec.Resolved, error) {
		mu.Lock()
		err := last.prepare(componentName, context)
		r := last
		mu.Unlock()
		if err != nil {
			return testexec.Resolved{}, err
		}
		if r.mutant == nil {
			comp := r.target.New(nil)
			return testexec.Resolved{Factory: comp.Factory, Providers: comp.Providers}, nil
		}
		eng := r.engine.Clone()
		if err := eng.Activate(*r.mutant); err != nil {
			return testexec.Resolved{}, fmt.Errorf("core: arming mutant in case server: %w", err)
		}
		comp := r.target.New(eng)
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

// resolution is what CaseResolver prepared for the last component and
// context it was asked for.
type resolution struct {
	name, context string
	target        Target
	mutant        *mutation.Mutant // nil: the original program
	engine        *mutation.Engine // the target's sites, never armed; nil until a mutant needs it
}

// prepare makes r the resolution of name and context, decoding the context
// and building the engine only when they differ from the last ones. On an
// error r is left as it was.
func (r *resolution) prepare(name string, context json.RawMessage) error {
	if r.name != "" && name == r.name && string(context) == r.context {
		return nil
	}
	t, err := LookupTarget(name)
	if err != nil {
		return err
	}
	var ctx analysis.IsolationContext
	if len(context) > 0 {
		if err := json.Unmarshal(context, &ctx); err != nil {
			return fmt.Errorf("core: decoding isolation context: %w", err)
		}
	}
	eng := r.engine
	if name != r.name {
		eng = nil
	}
	if ctx.Mutant != nil && eng == nil {
		if eng, err = t.engine(); err != nil {
			return err
		}
	}
	*r = resolution{name: name, context: string(context), target: t, mutant: ctx.Mutant, engine: eng}
	return nil
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
