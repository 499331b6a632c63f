// Package core ties the substrates into the paper's central abstraction: a
// self-testable component, i.e. a component that travels with its test
// specification and built-in test capabilities, plus the consumer-side
// operations of §3.1 — generate test cases from the embedded t-spec, put the
// component in test mode, execute, analyze. It also hosts the registry of
// the built-in study subjects so the CLI and the experiment harness address
// them by name.
package core

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"sync"

	"concat/internal/analysis"
	"concat/internal/component"
	"concat/internal/components/account"
	"concat/internal/components/oblist"
	"concat/internal/components/ordersys"
	"concat/internal/components/product"
	"concat/internal/components/sortlist"
	"concat/internal/components/stack"
	"concat/internal/domain"
	"concat/internal/driver"
	"concat/internal/history"
	"concat/internal/mutation"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

// Component is a self-testable component from the consumer's point of view:
// the factory (implementation + embedded t-spec + BIT interface) plus the
// provider map that completes structured parameters.
type Component struct {
	Factory   component.Factory
	Providers map[string]domain.Provider
}

// Spec returns the embedded test specification.
func (c *Component) Spec() *tspec.Spec { return c.Factory.Spec() }

// GenerateSuite runs the Driver Generator on the embedded t-spec.
func (c *Component) GenerateSuite(opts driver.Options) (*driver.Suite, error) {
	return driver.Generate(c.Spec(), opts)
}

// RunSuite executes a suite against the component.
func (c *Component) RunSuite(s *driver.Suite, opts testexec.Options) (*testexec.Report, error) {
	if opts.Providers == nil {
		opts.Providers = c.Providers
	}
	return testexec.Run(s, c.Factory, opts)
}

// SelfTest is the consumer workflow of §3.1 in one call: generate test
// cases from the embedded t-spec, execute them in test mode, and report.
func (c *Component) SelfTest(gen driver.Options, exec testexec.Options) (*driver.Suite, *testexec.Report, error) {
	suite, err := c.GenerateSuite(gen)
	if err != nil {
		return nil, nil, fmt.Errorf("core: self-test of %q: %w", c.Factory.Name(), err)
	}
	report, err := c.RunSuite(suite, exec)
	if err != nil {
		return suite, nil, fmt.Errorf("core: self-test of %q: %w", c.Factory.Name(), err)
	}
	return suite, report, nil
}

// History builds the component's testing history from a generated suite.
func (c *Component) History(s *driver.Suite) *history.History {
	return history.Build(s)
}

// DeriveSubclass applies the hierarchical incremental technique: the child
// component reuses the parent's test cases where the paper's rule allows.
func DeriveSubclass(parent, child *Component, parentSuite *driver.Suite, opts driver.Options) (*history.DerivedSuite, error) {
	return history.Derive(parent.Spec(), child.Spec(), parentSuite, opts)
}

// Target describes one built-in study subject: how to build a factory
// (optionally with a mutation engine attached), its instrumentation sites
// and the methods the paper's experiments mutate.
type Target struct {
	Name string
	// New builds a factory; eng may be nil for plain testing (a nil
	// engine leaves every instrumented use unmutated).
	New func(eng *mutation.Engine) *Component
	// Sites is the component's mutation site table (may be empty).
	Sites []mutation.Site
	// ExperimentMethods are the methods the paper's experiments mutate.
	ExperimentMethods []string
}

// MutantMethods enumerates the target's mutants over its experiment
// methods, one method name per mutant, for the impact report's mutant
// accounting. Components without instrumentation yield nil.
func (t Target) MutantMethods() []string {
	eng, err := t.engine()
	if err != nil || len(t.ExperimentMethods) == 0 {
		return nil
	}
	var out []string
	for _, m := range eng.Enumerate(nil, t.ExperimentMethods) {
		out = append(out, m.Method)
	}
	return out
}

// engine builds a mutation engine over the target's site table: the one
// place a campaign, a case server and the impact accounting get the sites
// a mutant can be armed at.
func (t Target) engine() (*mutation.Engine, error) {
	if len(t.Sites) == 0 {
		return nil, fmt.Errorf("core: component %q has no mutation instrumentation", t.Name)
	}
	eng := mutation.NewEngine()
	for _, s := range t.Sites {
		if err := eng.RegisterSite(s); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return eng, nil
}

// Targets returns the built-in study subjects, keyed by component name, in
// a map of the caller's own.
func Targets() map[string]Target { return maps.Clone(targetTable()) }

// targetTable is the registry Targets copies and LookupTarget reads, built
// once.
var targetTable = sync.OnceValue(func() map[string]Target {
	return map[string]Target{
		account.Name: {
			Name: account.Name,
			New: func(eng *mutation.Engine) *Component {
				return &Component{Factory: account.NewFactoryWithEngine(eng)}
			},
			Sites:             account.Sites(),
			ExperimentMethods: []string{"Withdraw"},
		},
		oblist.Name: {
			Name: oblist.Name,
			New: func(eng *mutation.Engine) *Component {
				return &Component{Factory: oblist.NewFactoryWithEngine(eng)}
			},
			Sites:             oblist.Sites(),
			ExperimentMethods: []string{"AddHead", "RemoveAt", "RemoveHead"},
		},
		sortlist.Name: {
			Name: sortlist.Name,
			New: func(eng *mutation.Engine) *Component {
				return &Component{Factory: sortlist.NewFactoryWithEngine(eng)}
			},
			// The sortable list inherits the base sites too: experiment 2
			// mutates base methods while running subclass objects.
			Sites:             append(oblist.Sites(), sortlist.Sites()...),
			ExperimentMethods: []string{"Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"},
		},
		product.Name: {
			Name: product.Name,
			New: func(eng *mutation.Engine) *Component {
				f := product.NewFactory()
				return &Component{Factory: f, Providers: f.Providers()}
			},
		},
		"StackOfInt": {
			Name: "StackOfInt",
			New: func(eng *mutation.Engine) *Component {
				f, err := stack.IntStack()
				if err != nil {
					panic(err) // static instantiation; failure is a programming error
				}
				return &Component{Factory: f}
			},
		},
		"StackOfString": {
			Name: "StackOfString",
			New: func(eng *mutation.Engine) *Component {
				f, err := stack.StringStack()
				if err != nil {
					panic(err) // static instantiation; failure is a programming error
				}
				return &Component{Factory: f}
			},
		},
		ordersys.Name: {
			Name: ordersys.Name,
			New: func(eng *mutation.Engine) *Component {
				return &Component{Factory: ordersys.NewFactoryWithEngine(eng)}
			},
			Sites:             ordersys.Sites(),
			ExperimentMethods: []string{"Checkout"},
		},
	}
})

// LookupTarget resolves a built-in component by name.
func LookupTarget(name string) (Target, error) {
	t, ok := targetTable()[name]
	if !ok {
		return Target{}, fmt.Errorf("core: unknown component %q (run `concat list` for the built-ins)", name)
	}
	return t, nil
}

// Registry returns a component.Registry with every built-in factory
// registered (no mutation engines attached).
func Registry() (*component.Registry, error) {
	reg := component.NewRegistry()
	for _, t := range Targets() {
		if err := reg.Register(t.New(nil).Factory); err != nil {
			return nil, fmt.Errorf("core: building registry: %w", err)
		}
	}
	return reg, nil
}

// MutationOptions tune a campaign beyond the defaults. An impact run
// (Target.Impact) reads only Exec, Parallelism and Store.
type MutationOptions struct {
	// Exec configures suite execution for the reference run and every mutant
	// run: isolation mode, step budgets, transcript caps, timeouts. The
	// Oracle is managed by the analysis; Providers are filled from the
	// target when unset.
	Exec testexec.Options
	// Parallelism overrides the worker count (mutants, or an impact run's
	// invalidated cases); zero means GOMAXPROCS.
	Parallelism int
	// Store, when enabled, caches mutant verdicts by content address so a
	// warm re-run of the same campaign re-executes only mutants whose
	// inputs (spec, suite, mutant, seed, result-relevant options) changed.
	Store store.Backend
	// ShardIndex/ShardCount restrict the campaign to one shard of the
	// deterministic mutant enumeration: only mutants whose sorted index is
	// congruent to ShardIndex mod ShardCount are executed. Shards publish
	// verdicts into a shared Store, and a subsequent unsharded warm run
	// reassembles the full campaign byte-identically. ShardCount <= 1 runs
	// everything; an empty shard (more shards than mutants) is legal.
	ShardIndex int
	ShardCount int
}

// MutationRun is the one-call mutation analysis workflow used by the CLI
// and the experiment harness: build an engine over the target's sites,
// enumerate mutants of the requested methods (all operators), and analyze
// the suite.
func MutationRun(targetName string, suite *driver.Suite, methods []string, progress io.Writer) (*analysis.Result, error) {
	return MutationRunOpts(targetName, suite, methods, progress, MutationOptions{})
}

// MutationRunOpts is MutationRun with explicit campaign options — notably
// testexec.IsolateSubprocess, under which every case (reference and mutant)
// executes in a `concat run-case` child so genuinely fatal mutants are
// recorded as crash kills instead of killing the campaign.
func MutationRunOpts(targetName string, suite *driver.Suite, methods []string, progress io.Writer, o MutationOptions) (*analysis.Result, error) {
	t, err := LookupTarget(targetName)
	if err != nil {
		return nil, err
	}
	return t.analyze(suite, methods, progress, o)
}

// analyze runs the target's mutation campaign on suite: the analysis
// MutationRunOpts and Mutate share.
func (t Target) analyze(suite *driver.Suite, methods []string, progress io.Writer, o MutationOptions) (*analysis.Result, error) {
	eng, err := t.engine()
	if err != nil {
		return nil, err
	}
	comp := t.New(eng)
	if len(methods) == 0 {
		methods = t.ExperimentMethods
	}
	mutants := eng.Enumerate(nil, methods)
	if len(mutants) == 0 {
		return nil, errors.New("core: no mutants enumerable for the requested methods")
	}
	if o.ShardCount > 1 {
		if o.ShardIndex < 0 || o.ShardIndex >= o.ShardCount {
			return nil, fmt.Errorf("core: shard %d out of range for %d shards", o.ShardIndex, o.ShardCount)
		}
		shard := mutants[:0:0]
		for i, m := range mutants {
			if i%o.ShardCount == o.ShardIndex {
				shard = append(shard, m)
			}
		}
		mutants = shard
	}
	exec := o.Exec
	if exec.Providers == nil {
		exec.Providers = comp.Providers
	}
	parallelism := o.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	a := &analysis.Analysis{
		Engine:      eng,
		Factory:     comp.Factory,
		Suite:       suite,
		Exec:        exec,
		Progress:    progress,
		Parallelism: parallelism,
		NewFactory: func(e *mutation.Engine) component.Factory {
			return t.New(e).Factory
		},
		Store: o.Store,
	}
	return a.Run(mutants)
}
