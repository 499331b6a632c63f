// Package hostile is the fault-injection kit for the execution sandbox: a
// family of deliberately misbehaving component doubles, one per failure
// mode the harness claims to contain. Each double is a valid self-testable
// component (it carries a t-spec and the BIT interface) whose behaviour is
// chosen at factory construction — panic in any lifecycle hook, hang, burn
// the step budget, flood the transcript, call os.Exit, recurse off the
// stack. The sandbox suite runs every double and asserts the executor
// records a per-case outcome instead of dying; the doubles are also the
// regression bed for the crash-containment subprocess mode, where the
// fatal behaviours (Exit, Recurse) actually kill the case server and the
// parent classifies the corpse.
package hostile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"concat/internal/bit"
	"concat/internal/component"
	"concat/internal/domain"
	"concat/internal/driver"
	"concat/internal/mutation"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

// Name is the hostile component's class name.
const Name = "Hostile"

// Behavior selects which failure mode a Hostile instance exhibits.
type Behavior string

// The failure modes. Benign is the control: a Hostile that behaves.
const (
	Benign           Behavior = "benign"
	PanicOnNew       Behavior = "panic-on-new"       // constructor panics
	PanicOnInvoke    Behavior = "panic-on-invoke"    // Poke panics
	PanicOnInvariant Behavior = "panic-on-invariant" // InvariantTest panics
	PanicOnReporter  Behavior = "panic-on-reporter"  // Reporter panics
	PanicOnDestroy   Behavior = "panic-on-destroy"   // destructor panics
	PanicOnFork      Behavior = "panic-on-fork"      // Factory.Fork panics (harness hook)
	InfiniteLoop     Behavior = "infinite-loop"      // Poke never returns
	BurnBudget       Behavior = "burn-budget"        // Poke spins on its own BIT services
	FloodTranscript  Behavior = "flood-transcript"   // Poke returns huge values
	FloodReporter    Behavior = "flood-reporter"     // Reporter writes until stopped
	Exit             Behavior = "exit"               // Poke calls os.Exit(66) — fatal, needs isolation
	Recurse          Behavior = "recurse"            // Poke recurses off the stack — fatal, needs isolation
	// ExitMidBatch is the process-reuse probe: instances count their
	// construction process-wide, and Poke calls os.Exit(66) from every
	// instance after the first — so a warm IsolatePool worker serving a
	// batch survives its first case and dies mid-batch on its second.
	// IsolateSubprocess discards its worker after every one-case batch, so
	// every case is the first in its process and the behavior never fires;
	// in-process it is as fatal as Exit. It lives outside
	// Behaviors()/FatalBehaviors() for exactly those reasons.
	ExitMidBatch Behavior = "exit-mid-batch"
)

// Behaviors lists every failure mode that is survivable in-process — the
// table the containment suite iterates. Exit and Recurse are excluded: they
// kill the hosting process by design and are exercised only under
// subprocess isolation (see FatalBehaviors).
func Behaviors() []Behavior {
	return []Behavior{
		Benign, PanicOnNew, PanicOnInvoke, PanicOnInvariant, PanicOnReporter,
		PanicOnDestroy, PanicOnFork, InfiniteLoop, BurnBudget,
		FloodTranscript, FloodReporter,
	}
}

// FatalBehaviors lists the modes that kill their hosting process — the
// subprocess-isolation suite's table.
func FatalBehaviors() []Behavior {
	return []Behavior{Exit, Recurse}
}

// exitMidBatchBirths counts ExitMidBatch instances constructed in this
// process — the state that makes the behavior fire only on a reused
// (warm) worker, never on a fresh one.
var exitMidBatchBirths atomic.Int64

// instance is one live Hostile object.
type instance struct {
	bit.Base
	behavior  Behavior
	ordinal   int64 // construction ordinal, process-wide (ExitMidBatch only)
	pokes     int64
	destroyed bool
}

var _ component.Instance = (*instance)(nil)

func (h *instance) InvariantTest() error {
	if err := h.Guard(); err != nil {
		return err
	}
	if h.behavior == PanicOnInvariant {
		panic("hostile: invariant check panics")
	}
	return h.AssertInvariant(h.pokes >= 0, "InvariantTest", "pokes >= 0")
}

func (h *instance) Reporter(w io.Writer) error {
	if err := h.Guard(); err != nil {
		return err
	}
	switch h.behavior {
	case PanicOnReporter:
		panic("hostile: reporter panics")
	case FloodReporter:
		// Write until the metered writer cuts us off; a well-behaved
		// component would stop at the first error, and this one does too —
		// the flood is in the volume, not in ignoring errors.
		for {
			if _, err := fmt.Fprintf(w, "flood %064d\n", h.pokes); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "Hostile{behavior: %s, pokes: %d}\n", h.behavior, h.pokes)
	return err
}

func (h *instance) Invoke(method string, args []domain.Value) ([]domain.Value, error) {
	if h.destroyed {
		return nil, fmt.Errorf("%w: Hostile", component.ErrDestroyed)
	}
	if method != "Poke" {
		return nil, fmt.Errorf("%w: %q", component.ErrUnknownMethod, method)
	}
	h.pokes++
	switch h.behavior {
	case PanicOnInvoke:
		panic("hostile: method panics")
	case InfiniteLoop:
		for {
			// A sleep keeps the spin from pegging a CPU while the watchdog
			// waits; the loop still never returns.
			time.Sleep(time.Millisecond)
		}
	case BurnBudget:
		// Spin on the component's own BIT services until the guard's budget
		// stops them — unbounded cooperative work.
		for {
			if err := h.InvariantTest(); err != nil {
				return nil, err
			}
		}
	case FloodTranscript:
		return []domain.Value{domain.Str(makeFlood(4096))}, nil
	case Exit:
		os.Exit(66)
	case ExitMidBatch:
		if h.ordinal > 1 {
			os.Exit(66)
		}
	case Recurse:
		return []domain.Value{domain.Int(recurse(0))}, nil
	}
	return []domain.Value{domain.Int(h.pokes)}, nil
}

func (h *instance) Destroy() error {
	if h.behavior == PanicOnDestroy && !h.destroyed {
		h.destroyed = true
		panic("hostile: destructor panics")
	}
	h.destroyed = true
	return nil
}

// recurse exhausts the goroutine stack: each frame pins a local array so
// the runtime cannot shrink frames away. The return value keeps the call
// from being optimized into a loop.
func recurse(depth int64) int64 {
	var pin [1 << 10]byte
	pin[0] = byte(depth)
	return recurse(depth+1) + int64(pin[0])
}

// makeFlood builds a deterministic n-byte payload.
func makeFlood(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return string(b)
}

// Factory builds Hostile instances with one fixed behavior.
type Factory struct {
	behavior Behavior
}

var _ component.Forker = (*Factory)(nil)

// NewFactory returns a factory whose instances exhibit the behavior.
func NewFactory(b Behavior) *Factory { return &Factory{behavior: b} }

// Name implements component.Factory.
func (f *Factory) Name() string { return Name }

// Spec implements component.Factory.
func (f *Factory) Spec() *tspec.Spec { return Spec() }

// New implements component.Factory.
func (f *Factory) New(ctor string, args []domain.Value) (component.Instance, error) {
	if ctor != "Hostile" {
		return nil, fmt.Errorf("hostile: unknown constructor %q", ctor)
	}
	if f.behavior == PanicOnNew {
		panic("hostile: constructor panics")
	}
	inst := &instance{behavior: f.behavior}
	if f.behavior == ExitMidBatch {
		inst.ordinal = exitMidBatchBirths.Add(1)
	}
	return inst, nil
}

// Fork implements component.Forker — the executor's pre-case harness hook,
// one more surface a hostile component can blow up.
func (f *Factory) Fork() component.Factory {
	if f.behavior == PanicOnFork {
		panic("hostile: fork panics")
	}
	return &Factory{behavior: f.behavior}
}

// specOnce builds the embedded t-spec exactly once.
var specOnce = sync.OnceValue(buildSpec)

// Spec returns the hostile component's t-spec (shared, treat as read-only).
func Spec() *tspec.Spec { return specOnce() }

func buildSpec() *tspec.Spec {
	return tspec.NewBuilder(Name).
		Attribute("pokes", tspec.RangeInt(0, 1<<20)).
		Method("m1", "Hostile", "", tspec.CatConstructor).
		Uses("pokes").
		Method("m2", "Poke", "int", tspec.CatUpdate).
		Uses("pokes").
		Method("m3", "~Hostile", "", tspec.CatDestructor).
		Node("n1", true, "m1").
		Node("n2", false, "m2").
		Node("n3", false, "m3").
		Edge("n1", "n2").
		Edge("n2", "n2").
		Edge("n2", "n3").
		MustBuild()
}

// Suite returns a fixed suite for the Hostile component: construct, poke n
// times, destroy. The suite is handwritten (not driver-generated) so the
// containment tests control exactly how many chances each behavior gets to
// fire.
func Suite(pokes int) *driver.Suite {
	calls := []driver.Call{{MethodID: "m1", Method: "Hostile"}}
	for i := 0; i < pokes; i++ {
		calls = append(calls, driver.Call{MethodID: "m2", Method: "Poke"})
	}
	calls = append(calls, driver.Call{MethodID: "m3", Method: "~Hostile"})
	return &driver.Suite{
		Component: Name,
		Cases: []driver.TestCase{{
			ID:          "H0",
			Transaction: "n1>n2>n3",
			Path:        []string{"n1", "n2", "n3"},
			Calls:       calls,
		}},
	}
}

// Context is the isolation-context wire form hostile's resolver accepts:
// either a behavior for the Hostile component or an armed mutant for
// HostileMut.
type Context struct {
	Behavior Behavior         `json:"behavior,omitempty"`
	Mutant   *mutation.Mutant `json:"mutant,omitempty"`
}

// Flags is the per-case Extra payload the resolver's Finish hook ships back
// to the parent: the mutation engine's reach/infection record for the case.
type Flags struct {
	Reached  bool `json:"reached"`
	Infected bool `json:"infected"`
}

// CaseResolver returns the testexec.Resolver a hostile case server uses: it
// handles the Hostile component (context carries the behavior) and
// HostileMut (context carries the armed mutant, reach/infection flags
// travel back via Finish).
func CaseResolver() testexec.Resolver {
	return func(componentName string, context json.RawMessage) (testexec.Resolved, error) {
		var ctx Context
		if len(context) > 0 {
			if err := json.Unmarshal(context, &ctx); err != nil {
				return testexec.Resolved{}, fmt.Errorf("hostile: decoding context: %w", err)
			}
		}
		switch componentName {
		case Name:
			b := ctx.Behavior
			if b == "" {
				b = Benign
			}
			return testexec.Resolved{Factory: NewFactory(b)}, nil
		case MutName:
			eng := mutation.NewEngine()
			eng.MustRegisterSites(MutSites()...)
			if ctx.Mutant != nil {
				if err := eng.Activate(*ctx.Mutant); err != nil {
					return testexec.Resolved{}, err
				}
			}
			return testexec.Resolved{
				Factory: NewMutFactory(eng),
				Finish: func() json.RawMessage {
					raw, _ := json.Marshal(Flags{
						Reached:  eng.Reached(),
						Infected: eng.Infected(),
					})
					return raw
				},
			}, nil
		default:
			return testexec.Resolved{}, fmt.Errorf("hostile: unknown component %q", componentName)
		}
	}
}
