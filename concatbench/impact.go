package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"concat/internal/components/oblist"
	"concat/internal/core"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/mutation"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
	"concat/internal/tspec"
)

// impactFixture is the impact-edit set-up: the two spec revisions in their
// JSON wire form, the entries of the primed template store every
// iteration's fresh store is filled from, and the cold run of the new
// suite every Final report must equal.
type impactFixture struct {
	oldJSON, newJSON []byte
	gen              driver.Options
	mutantMethods    []string
	template         *recordingStore
	coldFinal        []byte
}

// recordingStore is an in-memory store that also keeps every Put, so the
// primed template can be replayed into fresh stores.
type recordingStore struct {
	*store.Mem
	mu      sync.Mutex
	entries []storeEntry
}

type storeEntry struct {
	key   store.Key
	value any
}

func (r *recordingStore) Put(k store.Key, v any) error {
	r.mu.Lock()
	r.entries = append(r.entries, storeEntry{k, v})
	r.mu.Unlock()
	return r.Mem.Put(k, v)
}

// fresh returns a new store holding the template's entries.
func (r *recordingStore) fresh() (*store.Mem, error) {
	m := store.NewMem()
	for _, en := range r.entries {
		if err := m.Put(en.key, en.value); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// editedSpecs returns ObList and the documented edit: RemoveAt's index
// domain narrowed from hi 5 to hi 3.
func editedSpecs() (oldSpec, newSpec *tspec.Spec, err error) {
	oldSpec = oblist.Spec()
	newSpec = oldSpec.Clone()
	for i, m := range newSpec.Methods {
		if m.Name == "RemoveAt" && len(m.Params) > 0 {
			newSpec.Methods[i].Params[0].Domain.Hi = 3
			return oldSpec, newSpec, nil
		}
	}
	return nil, nil, fmt.Errorf("ObList spec has no RemoveAt parameter to edit")
}

func wireForm(s *tspec.Spec) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.SaveJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newImpactFixture primes a template store with one identical-spec impact
// run (the CLI's documented priming step) and computes the cold reference
// report.
func newImpactFixture(seed int64) (*impactFixture, error) {
	oldSpec, newSpec, err := editedSpecs()
	if err != nil {
		return nil, err
	}
	f := &impactFixture{
		gen:      driver.Options{Seed: seed, MaxAlternatives: 4, Enum: tfm.EnumOptions{LoopBound: 1}},
		template: &recordingStore{Mem: store.NewMem()},
	}
	if f.oldJSON, err = wireForm(oldSpec); err != nil {
		return nil, err
	}
	if f.newJSON, err = wireForm(newSpec); err != nil {
		return nil, err
	}
	t, err := core.LookupTarget(oblist.Name)
	if err != nil {
		return nil, err
	}
	eng := mutation.NewEngine()
	eng.MustRegisterSites(t.Sites...)
	for _, m := range eng.Enumerate(nil, t.ExperimentMethods) {
		f.mutantMethods = append(f.mutantMethods, m.Method)
	}
	prime := &impact.Runner{Factory: oblist.NewFactory(), Gen: f.gen, Store: f.template, MutantMethods: f.mutantMethods}
	if _, err := prime.Run(oldSpec, oldSpec); err != nil {
		return nil, fmt.Errorf("priming store: %w", err)
	}
	suite, err := driver.Generate(newSpec, f.gen)
	if err != nil {
		return nil, err
	}
	cold, err := testexec.Run(suite, oblist.NewFactory(), testexec.Options{})
	if err != nil {
		return nil, err
	}
	if f.coldFinal, err = json.Marshal(cold); err != nil {
		return nil, err
	}
	return f, nil
}

// impactSample is what one impact iteration measured.
type impactSample struct {
	wallMs, loadMs, impactEncMs, coverEncMs float64
	report                                  *impact.Report
	final, encoded, coverage                []byte
	gets, getMs, hits, puts, putMs, canonMs float64
	calls                                   float64
}

// impactIteration is one user-visible re-verification: load both spec
// revisions from their wire form, run the impact engine against the
// (freshly filled) store, and encode the impact report and coverage
// artifact. With a tracer, the store and factory are probed and every call
// is a span.
func impactIteration(e *env, f *impactFixture, st *store.Mem) (impactSample, error) {
	var smp impactSample
	op := e.tr.start(0, "bench.impact")
	t0 := time.Now()
	sp := e.tr.start(op.ID(), "tspec.load")
	oldSpec, err := tspec.LoadJSON(bytes.NewReader(f.oldJSON))
	if err != nil {
		return smp, err
	}
	newSpec, err := tspec.LoadJSON(bytes.NewReader(f.newJSON))
	if err != nil {
		return smp, err
	}
	smp.loadMs = ms(sp.end())
	r := &impact.Runner{Factory: oblist.NewFactory(), Gen: f.gen, Store: st, MutantMethods: f.mutantMethods}
	var sprobe *storeProbe
	var cprobe *componentProbe
	if e.tr != nil {
		sprobe = &storeProbe{RawBackend: st, tr: e.tr}
		cprobe = &componentProbe{}
		r.Store = sprobe
		r.Factory = cprobe.factory(r.Factory)
	}
	sp = e.tr.start(op.ID(), "impact.run")
	if sprobe != nil {
		sprobe.parent.Store(sp.ID())
	}
	res, err := r.Run(oldSpec, newSpec)
	sp.end()
	if err != nil {
		return smp, err
	}
	sp = e.tr.start(op.ID(), "impact.encode")
	smp.encoded, err = res.Report.Encode()
	smp.impactEncMs = ms(sp.end())
	if err != nil {
		return smp, err
	}
	sp = e.tr.start(op.ID(), "cover.encode")
	smp.coverage, err = res.Coverage.Encode()
	smp.coverEncMs = ms(sp.end())
	if err != nil {
		return smp, err
	}
	smp.wallMs = ms(time.Since(t0))
	op.end()
	smp.report = res.Report
	if smp.final, err = json.Marshal(res.Final); err != nil {
		return smp, err
	}
	if sprobe != nil {
		smp.gets, smp.getMs, smp.hits = sprobe.gets.calls(), sprobe.gets.ms(), float64(sprobe.hits.Load())
		smp.puts, smp.putMs, smp.canonMs = sprobe.puts.calls(), sprobe.puts.ms(), sprobe.encodes.ms()
		smp.calls = cprobe.calls.calls()
	}
	return smp, nil
}

// checkImpact applies the impact-edit gates to one iteration; want is the
// untraced warm-up iteration, whose encoded artifacts every later
// iteration, traced or not, must reproduce byte for byte.
func checkImpact(o *outcome, f *impactFixture, seed int64, i int, smp, want impactSample) {
	rep := smp.report
	ok := rep.CacheHits == rep.Kept && bytes.Equal(smp.final, f.coldFinal) &&
		rep.Kept+rep.Rerun+rep.Regenerated == len(rep.Cases) &&
		bytes.Equal(smp.encoded, want.encoded) && bytes.Equal(smp.coverage, want.coverage)
	if seed == 42 {
		ok = ok && rep.Kept == 34 && rep.Rerun == 22 && rep.Regenerated == 173
	}
	o.verify(ok, "iteration %d: partition %d/%d/%d, hits %d, final equal to cold run: %v",
		i, rep.Kept, rep.Rerun, rep.Regenerated, rep.CacheHits, bytes.Equal(smp.final, f.coldFinal))
}

// runImpact measures the documented ObList edit through impact.Runner.Run.
// Every iteration gets a fresh store filled from the primed template, so
// no iteration sees another's writes. The store is in memory: on a
// filesystem store the iterations' writes and deletes slowed the disk
// from run to run (see README), which no median within a run can remove.
func runImpact(e *env) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var f *impactFixture
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if f, err = newImpactFixture(e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var warm impactSample
	iteration := func(i int, traced bool) (impactSample, error) {
		st, err := f.template.fresh()
		if err != nil {
			return impactSample{}, err
		}
		ie := e
		if !traced {
			ie = &env{}
		}
		smp, err := impactIteration(ie, f, st)
		if err != nil {
			return smp, err
		}
		if i < 0 {
			warm = smp
		}
		checkImpact(o, f, e.seed, i, smp, warm)
		return smp, nil
	}
	if _, err := iteration(-1, false); err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = median(setups) + warm.wallMs/1000

	var plain, traced []float64
	var samples []impactSample
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.window; i++ {
		// Each op starts from a collected heap, so neither its time nor the
		// peak RSS depends on how earlier ops' garbage met the collector.
		runtime.GC()
		withTrace := e.traced && i%2 == 0
		smp, err := iteration(i, withTrace)
		if err != nil {
			return nil, err
		}
		if withTrace {
			samples = append(samples, smp)
			traced = append(traced, smp.wallMs)
		} else {
			plain = append(plain, smp.wallMs)
		}
	}
	if len(plain) == 0 {
		plain = []float64{warm.wallMs}
	}
	o.metrics["verdict_p90_ms"] = quantile(plain, 0.9)
	if !e.traced {
		o.metrics["verdict_p50_ms"] = median(plain)
		o.metrics["verdicts_per_s"] = float64(len(plain)) / (sum(plain) / 1000)
		return o, nil
	}
	o.metrics["trace.overhead_ratio"] = ratio(median(traced), median(plain)) - 1
	pick := func(fn func(impactSample) float64) float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, fn(s))
		}
		return median(xs)
	}
	o.metrics["tspec.load_ms"] = pick(func(s impactSample) float64 { return s.loadMs })
	o.metrics["impact.encode_ms"] = pick(func(s impactSample) float64 { return s.impactEncMs })
	o.metrics["cover.encode_ms"] = pick(func(s impactSample) float64 { return s.coverEncMs })
	o.metrics["impact.kept"] = pick(func(s impactSample) float64 { return float64(s.report.Kept) })
	o.metrics["impact.rerun"] = pick(func(s impactSample) float64 { return float64(s.report.Rerun) })
	o.metrics["impact.regenerated"] = pick(func(s impactSample) float64 { return float64(s.report.Regenerated) })
	o.metrics["store.get_calls"] = pick(func(s impactSample) float64 { return s.gets })
	o.metrics["store.get_ms"] = pick(func(s impactSample) float64 { return s.getMs })
	o.metrics["store.hits"] = pick(func(s impactSample) float64 { return s.hits })
	o.metrics["store.hit_ratio"] = pick(func(s impactSample) float64 { return ratio(s.hits, s.gets) })
	o.metrics["store.put_calls"] = pick(func(s impactSample) float64 { return s.puts })
	o.metrics["store.put_ms"] = pick(func(s impactSample) float64 { return s.putMs })
	o.metrics["canon.encode_ms"] = pick(func(s impactSample) float64 { return s.canonMs })
	o.metrics["component.calls"] = pick(func(s impactSample) float64 { return s.calls })
	return o, specLayers(e, f, o)
}

// specLayers times, from outside, the spec-level work an impact run does:
// the spec diff, canonical hashing of fresh clones (the hash is memoised
// per spec value), TFM enumeration and suite generation of the new
// revision. Each is the median of setupReps calls.
func specLayers(e *env, f *impactFixture, o *outcome) error {
	oldSpec, err := tspec.LoadJSON(bytes.NewReader(f.oldJSON))
	if err != nil {
		return err
	}
	newSpec, err := tspec.LoadJSON(bytes.NewReader(f.newJSON))
	if err != nil {
		return err
	}
	var diff, hash, enum, gen []float64
	var transactions, cases int
	for i := 0; i < setupReps; i++ {
		sp := e.tr.start(0, "tspec.diff")
		tspec.DiffSpecs(oldSpec, newSpec)
		diff = append(diff, ms(sp.end()))
		a, b := oldSpec.Clone(), newSpec.Clone()
		sp = e.tr.start(0, "tspec.hash")
		if _, err := a.CanonicalHash(); err != nil {
			return err
		}
		if _, err := b.CanonicalHash(); err != nil {
			return err
		}
		hash = append(hash, ms(sp.end()))
		sp = e.tr.start(0, "tfm.enumerate")
		g, err := newSpec.TFM()
		var ts []tfm.Transaction
		if err == nil {
			ts, err = g.Transactions(f.gen.Enum)
		}
		enum = append(enum, ms(sp.end()))
		if err != nil {
			return err
		}
		transactions = len(ts)
		sp = e.tr.start(0, "driver.generate")
		suite, err := driver.Generate(newSpec, f.gen)
		gen = append(gen, ms(sp.end()))
		if err != nil {
			return err
		}
		cases = len(suite.Cases)
	}
	o.metrics["tspec.diff_ms"] = median(diff)
	o.metrics["tspec.hash_ms"] = median(hash)
	o.metrics["tfm.enumerate_ms"] = median(enum)
	o.metrics["tfm.transactions"] = float64(transactions)
	o.metrics["driver.generate_ms"] = median(gen)
	o.metrics["driver.cases"] = float64(cases)
	return nil
}
