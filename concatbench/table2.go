package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"concat/internal/analysis"
	"concat/internal/component"
	"concat/internal/components/oblist"
	"concat/internal/components/sortlist"
	"concat/internal/driver"
	"concat/internal/experiments"
	"concat/internal/history"
	"concat/internal/mutation"
	"concat/internal/obs"
	"concat/internal/testexec"
	"concat/internal/tfm"
)

// table2Config is experiments.Default() re-seeded with the workload seed,
// at parallelism nproc, in process or on the warm worker pool.
func table2Config(seed int64, pooled bool) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.ParentOpts.Seed = seed
	cfg.ChildOpts.Seed = seed
	cfg.Parallelism = runtime.NumCPU()
	if pooled {
		cfg.Isolation = testexec.IsolatePool
	}
	return cfg
}

func renderTable(res *analysis.Result) (string, error) {
	var b strings.Builder
	if err := experiments.RenderResult(&b, "Table 2", res); err != nil {
		return "", err
	}
	return b.String(), nil
}

// runTable2 measures in-process Experiment1 campaigns back to back.
// Untraced ops call Setup.Experiment1 exactly as the experiments CLI does;
// in a traced run every other op assembles the same campaign with probed
// factories and metrics, and the ops in between stay untraced so the
// difference is the tracing overhead. After the window one campaign runs
// on the warm worker pool (untimed): its table must match byte for byte,
// and in a traced run it supplies the pool layer's numbers.
func runTable2(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := table2Config(e.seed, false)

	var setups []float64
	var s *experiments.Setup
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = experiments.NewSetup(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	warm, err := s.Experiment1(nil)
	if err != nil {
		return nil, err
	}
	warmS := time.Since(t0).Seconds()
	want, err := renderTable(warm)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = median(setups) + warmS
	if e.seed == 42 {
		t := warm.Tabulate()
		o.verify(t.Total.Mutants == 185 && t.Total.Killed == 169 && t.Total.Equivalent == 3 &&
			fmt.Sprintf("%.1f", t.Total.Score()*100) == "92.9",
			"seed 42 Table 2 is %d/%d/%d %.1f%%, EXPERIMENTS.md says 185/169/3 92.9%%",
			t.Total.Mutants, t.Total.Killed, t.Total.Equivalent, t.Total.Score()*100)
	}
	if e.traced {
		if err := setupLayers(e, cfg, o); err != nil {
			return nil, err
		}
	}

	var plain, traced []float64
	var samples []campaignSample
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.window; i++ {
		withTrace := e.traced && (i%2 == 0)
		var res *analysis.Result
		if withTrace {
			var cs campaignSample
			res, cs, err = tracedCampaign(e, s, cfg)
			if err != nil {
				return nil, err
			}
			samples = append(samples, cs)
			traced = append(traced, cs.wallMs)
		} else {
			t0 := time.Now()
			res, err = s.Experiment1(nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, ms(time.Since(t0)))
		}
		got, err := renderTable(res)
		if err != nil {
			return nil, err
		}
		o.verify(got == want, "campaign %d rendered a different table (traced=%v)", i, withTrace)
	}

	// The pool changes isolation, never results.
	pcfg := table2Config(e.seed, true)
	pooled := &experiments.Setup{Config: pcfg, ParentSuite: s.ParentSuite, Derived: s.Derived}
	var res *analysis.Result
	var poolSample campaignSample
	if e.traced {
		res, poolSample, err = tracedCampaign(e, pooled, pcfg)
	} else {
		res, err = pooled.Experiment1(nil)
	}
	if err != nil {
		return nil, err
	}
	got, err := renderTable(res)
	if err != nil {
		return nil, err
	}
	o.verify(got == want, "the pooled campaign rendered a different table")

	base := plain
	if len(base) == 0 {
		base = []float64{warmS * 1000}
	}
	o.metrics["verdict_p90_ms"] = quantile(base, 0.9)
	if !e.traced {
		o.metrics["verdict_p50_ms"] = median(plain)
		o.metrics["verdicts_per_s"] = float64(len(plain)) / (sum(plain) / 1000)
		return o, nil
	}
	o.metrics["trace.overhead_ratio"] = ratio(median(traced), median(base)) - 1
	pick := func(f func(campaignSample) float64) float64 {
		var xs []float64
		for _, cs := range samples {
			xs = append(xs, f(cs))
		}
		return median(xs)
	}
	o.metrics["mutation.enumerate_ms"] = pick(func(c campaignSample) float64 { return c.enumerateMs })
	o.metrics["mutation.mutants"] = pick(func(c campaignSample) float64 { return c.mutants })
	o.metrics["analysis.provisions"] = pick(func(c campaignSample) float64 { return c.provisions })
	o.metrics["analysis.per_mutant_ms"] = pick(func(c campaignSample) float64 {
		return (c.runMs - c.referenceMs) / c.mutants
	})
	o.metrics["testexec.reference_ms"] = pick(func(c campaignSample) float64 { return c.referenceMs })
	o.metrics["testexec.case_us"] = pick(func(c campaignSample) float64 { return c.referenceMs * 1000 / c.cases })
	o.metrics["testexec.harness_ratio"] = pick(func(c campaignSample) float64 { return 1 - c.refCallMs/c.referenceMs })
	o.metrics["component.calls"] = pick(func(c campaignSample) float64 { return c.calls })
	o.metrics["component.call_ms"] = pick(func(c campaignSample) float64 { return c.callMs })
	o.metrics["component.instances"] = pick(func(c campaignSample) float64 { return c.instances })
	o.metrics["pool.spawned"] = poolSample.spawned
	o.metrics["pool.discarded"] = poolSample.discarded
	o.metrics["pool.batches"] = poolSample.batches
	o.metrics["pool.redispatches"] = poolSample.redispatches
	o.metrics["pool.recycles"] = poolSample.recycles
	o.metrics["pool.case_us"] = poolSample.poolCaseUs
	o.metrics["pool.campaign_ms"] = poolSample.wallMs
	return o, nil
}

// campaignSample is what one traced campaign measured.
type campaignSample struct {
	wallMs, enumerateMs, runMs, referenceMs, refCallMs float64
	mutants, cases, provisions                         float64
	calls, callMs, instances                           float64
	spawned, discarded, batches, redispatches          float64
	recycles, poolCaseUs                               float64
}

// tracedCampaign runs the Experiment1 campaign assembled from public
// parts — the same engine, sites, suite, methods and parallelism as
// Setup.Experiment1 — with every component factory probed, inside a bench
// op span. After the op it times an outside reference run of the campaign
// suite, on the campaign's still-warm pool when pooled.
func tracedCampaign(e *env, s *experiments.Setup, cfg experiments.Config) (*analysis.Result, campaignSample, error) {
	var cs campaignSample
	probe := &componentProbe{}
	newEngine := func() *mutation.Engine {
		eng := mutation.NewEngine()
		eng.MustRegisterSites(oblist.Sites()...)
		eng.MustRegisterSites(sortlist.Sites()...)
		return eng
	}
	nf := func(eng *mutation.Engine) component.Factory { return sortlist.NewFactoryWithEngine(eng) }
	met := obs.NewMetrics()
	exec := testexec.Options{Isolation: cfg.Isolation, Metrics: met}

	op := e.tr.start(0, "bench.campaign")
	if cfg.Isolation == testexec.IsolatePool {
		sp := e.tr.start(op.ID(), "pool.provision")
		p, err := testexec.NewWorkerPool(exec, cfg.Parallelism)
		sp.end()
		if err != nil {
			return nil, cs, err
		}
		exec.WorkerPool = p
		defer p.Close()
	}
	eng := newEngine()
	sp := e.tr.start(op.ID(), "mutation.enumerate")
	mutants := eng.Enumerate(nil, experiments.Experiment1Methods)
	cs.enumerateMs = ms(sp.end())
	a := &analysis.Analysis{
		Engine:      eng,
		Factory:     probe.factory(nf(eng)),
		Suite:       s.Derived.Suite,
		Exec:        exec,
		Parallelism: cfg.Parallelism,
		NewFactory:  probe.newFactory(nf),
	}
	sp = e.tr.start(op.ID(), "analysis.run")
	res, err := a.Run(mutants)
	cs.runMs = ms(sp.end())
	cs.wallMs = ms(op.end())
	if err != nil {
		return nil, cs, err
	}
	cs.mutants = float64(len(mutants))
	cs.cases = float64(len(s.Derived.Suite.Cases))
	cs.provisions = float64(probe.provisions.Load())
	cs.calls, cs.callMs = probe.calls.calls(), probe.calls.ms()
	cs.instances = float64(probe.instances.Load())
	snap := met.Snapshot()
	cs.batches = float64(snap.Counters["pool.batches"])
	cs.redispatches = float64(snap.Counters["pool.redispatches"])
	cs.recycles = float64(snap.Counters["pool.recycles"])
	if h, ok := snap.Durations["case.duration"]; ok && h.Count > 0 && exec.WorkerPool != nil {
		cs.poolCaseUs = float64(h.SumUS) / float64(h.Count)
	}

	refProbe := &componentProbe{}
	refOpts := testexec.Options{Isolation: cfg.Isolation, WorkerPool: exec.WorkerPool}
	sp = e.tr.start(0, "testexec.reference")
	_, err = testexec.Run(s.Derived.Suite, refProbe.factory(nf(newEngine())), refOpts)
	cs.referenceMs = ms(sp.end())
	if err != nil {
		return nil, cs, err
	}
	cs.refCallMs = refProbe.calls.ms()
	if p := exec.WorkerPool; p != nil {
		p.Close()
		st := p.Stats()
		cs.spawned, cs.discarded = float64(st.Spawned), float64(st.Discarded)
	}
	return res, cs, nil
}

// setupLayers times, from outside, the set-up layers Setup performs:
// parent suite generation, TFM enumeration of the subclass model, and the
// incremental derivation. Each is the median of setupReps calls.
func setupLayers(e *env, cfg experiments.Config, o *outcome) error {
	var gen, enum, derive []float64
	var suite *driver.Suite
	var d *history.DerivedSuite
	var transactions int
	for i := 0; i < setupReps; i++ {
		sp := e.tr.start(0, "driver.generate")
		var err error
		suite, err = driver.Generate(oblist.Spec(), cfg.ParentOpts)
		gen = append(gen, ms(sp.end()))
		if err != nil {
			return err
		}
		sp = e.tr.start(0, "tfm.enumerate")
		g, err := sortlist.Spec().TFM()
		var ts []tfm.Transaction
		if err == nil {
			ts, err = g.Transactions(cfg.ChildOpts.Enum)
		}
		enum = append(enum, ms(sp.end()))
		if err != nil {
			return err
		}
		transactions = len(ts)
		sp = e.tr.start(0, "history.derive")
		d, err = history.Derive(oblist.Spec(), sortlist.Spec(), suite, cfg.ChildOpts)
		derive = append(derive, ms(sp.end()))
		if err != nil {
			return err
		}
	}
	o.metrics["driver.generate_ms"] = median(gen)
	o.metrics["driver.cases"] = float64(len(suite.Cases))
	o.metrics["tfm.enumerate_ms"] = median(enum)
	o.metrics["tfm.transactions"] = float64(transactions)
	o.metrics["history.derive_ms"] = median(derive)
	o.metrics["history.new_cases"] = float64(d.NumNew)
	o.metrics["history.reused_cases"] = float64(d.NumReused)
	return nil
}
