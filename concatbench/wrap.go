package main

import (
	"sync/atomic"
	"time"

	"concat/internal/bit"
	"concat/internal/component"
	"concat/internal/core/canon"
	"concat/internal/domain"
	"concat/internal/mutation"
	"concat/internal/store"
	"concat/internal/tspec"
)

// counter accumulates a call count and the summed call time.
type counter struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

func (c *counter) reset() {
	c.n.Store(0)
	c.ns.Store(0)
}

func (c *counter) calls() float64 { return float64(c.n.Load()) }
func (c *counter) ms() float64    { return float64(c.ns.Load()) / 1e6 }

// storeProbe wraps a store.RawBackend from outside: every Get and Put is
// timed, counted and recorded as a span under the probe's current parent,
// and every Put value is also encoded with canon.Marshal so the canonical
// JSON cost shows as its own number. It forwards the raw interface so a
// service mounts the same /store routes it would without the probe.
type storeProbe struct {
	store.RawBackend
	tr     *tracer
	parent atomic.Int64

	gets, puts, encodes counter
	hits                atomic.Int64
}

// reset zeroes the probe's counters between a warm-up and the window.
func (p *storeProbe) reset() {
	p.gets.reset()
	p.puts.reset()
	p.encodes.reset()
	p.hits.Store(0)
}

func (p *storeProbe) Get(k store.Key, out any) (bool, error) {
	sp := p.tr.start(p.parent.Load(), "store.get")
	t0 := time.Now()
	hit, err := p.RawBackend.Get(k, out)
	p.gets.add(time.Since(t0))
	sp.end()
	if hit {
		p.hits.Add(1)
	}
	return hit, err
}

func (p *storeProbe) Put(k store.Key, value any) error {
	sp := p.tr.start(p.parent.Load(), "store.put")
	t0 := time.Now()
	if _, err := canon.Marshal(value); err != nil {
		return err
	}
	p.encodes.add(time.Since(t0))
	t1 := time.Now()
	err := p.RawBackend.Put(k, value)
	p.puts.add(time.Since(t1))
	sp.end()
	return err
}

// componentProbe counts what the executor does to a component from the
// outside: instances built, methods invoked and the time spent inside them.
type componentProbe struct {
	instances  atomic.Int64
	calls      counter
	provisions atomic.Int64
}

// factory wraps f. Factories that fork per case (component.Forker) are not
// wrapped: the benchmark's subjects do not fork, and a wrapper that hid the
// capability would change what the executor runs.
func (p *componentProbe) factory(f component.Factory) component.Factory {
	if _, ok := f.(component.Forker); ok {
		return f
	}
	return &probedFactory{inner: f, p: p}
}

// newFactory wraps an analysis.Analysis.NewFactory hook, counting worker
// provisions.
func (p *componentProbe) newFactory(nf func(*mutation.Engine) component.Factory) func(*mutation.Engine) component.Factory {
	return func(e *mutation.Engine) component.Factory {
		p.provisions.Add(1)
		return p.factory(nf(e))
	}
}

type probedFactory struct {
	inner component.Factory
	p     *componentProbe
}

func (f *probedFactory) Name() string      { return f.inner.Name() }
func (f *probedFactory) Spec() *tspec.Spec { return f.inner.Spec() }

func (f *probedFactory) New(ctor string, args []domain.Value) (component.Instance, error) {
	inst, err := f.inner.New(ctor, args)
	if err != nil {
		return nil, err
	}
	f.p.instances.Add(1)
	return &probedInstance{Instance: inst, p: f.p}, nil
}

// probedInstance times Invoke and forwards the optional BIT hooks the
// executor type-asserts, so assertion telemetry and step budgets reach the
// real instance exactly as without the probe.
type probedInstance struct {
	component.Instance
	p *componentProbe
}

func (i *probedInstance) Invoke(method string, args []domain.Value) ([]domain.Value, error) {
	t0 := time.Now()
	out, err := i.Instance.Invoke(method, args)
	i.p.calls.add(time.Since(t0))
	return out, err
}

func (i *probedInstance) SetBITBudget(c bit.Charger) {
	if bs, ok := i.Instance.(bit.BudgetSetter); ok {
		bs.SetBITBudget(c)
	}
}

func (i *probedInstance) SetBITTelemetry(t *bit.Telemetry) {
	if ts, ok := i.Instance.(bit.TelemetrySetter); ok {
		ts.SetBITTelemetry(t)
	}
}
