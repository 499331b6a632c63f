package driver

import (
	"fmt"
	"strconv"
	"time"

	"concat/internal/domain"
	"concat/internal/fanout"
	"concat/internal/obs"
	"concat/internal/sandbox"
	"concat/internal/tspec"
)

// SoakOptions configure random-walk suite generation.
type SoakOptions struct {
	// Seed drives both the walks and the argument sampling.
	Seed int64
	// Cases is the number of random transactions to generate.
	Cases int
	// MaxLength bounds each walk; zero means 4x the node count.
	MaxLength int
	// Parallelism is the number of workers case generation fans out over
	// (internal/fanout); zero or one generates serially. Every case draws
	// from its own RNG stream seeded by f(Seed, case index), so the
	// generated suite is identical at any parallelism, and a failing run
	// returns the lowest-indexed failing case's error — sharding changes
	// wall clock, never content.
	Parallelism int
	// StepBudget, when positive, bounds the generation work of each case:
	// one step is charged per walk node. The budget is per-case (not shared
	// across the suite) so exhaustion is a function of the case's own seed
	// and the result is identical at any parallelism. A case that exhausts
	// it fails generation with a sandbox exhaustion error — the guard for
	// degenerate models whose random walks rarely reach a death node.
	StepBudget int64
	// Trace, when set, records one soak-generate span with a soak-case
	// child per generated case; TraceParent roots the soak-generate span.
	// Timing lives only in the trace — the generated suite is identical
	// with tracing on or off.
	Trace       *obs.Tracer
	TraceParent obs.SpanID
	// Metrics, when set, aggregates per-case generation timings.
	Metrics *obs.Metrics
}

// GenerateSoak produces a suite of random transactions: each test case is
// one random walk through the TFM from a birth node to a death node, with
// arguments drawn from the declared domains. Where the systematic generator
// (Generate) enumerates the bounded transaction space once, the soak
// generator samples the unbounded space — long, repetitive method sequences
// the enumeration's loop bound excludes. It is the load/endurance-testing
// complement the transaction flow model supports "for free".
//
// Each case derives its own seed from (Seed, index), so cases are
// independent units of work: GenerateSoak shards them over
// SoakOptions.Parallelism workers and the output is bit-for-bit identical
// to the serial run.
func GenerateSoak(spec *tspec.Spec, opts SoakOptions) (*Suite, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("driver: soak generation for %q: %w", spec.Class.Name, err)
	}
	if opts.Cases <= 0 {
		opts.Cases = 100
	}
	g, err := spec.TFM()
	if err != nil {
		return nil, fmt.Errorf("driver: soak generation for %q: %w", spec.Class.Name, err)
	}
	genSpan := opts.Trace.Start(opts.TraceParent, obs.KindSoakGen, spec.Class.Name)
	genSpan.SetAttr("cases", strconv.Itoa(opts.Cases))
	defer genSpan.End()
	genCase := func(i int) (tc TestCase, err error) {
		label := "soak:" + strconv.Itoa(i)
		caseSpan := opts.Trace.Start(genSpan.ID(), obs.KindSoakCase, label)
		var began time.Time
		if opts.Metrics != nil {
			began = time.Now()
		}
		defer func() {
			if err != nil {
				caseSpan.SetAttr("status", "error")
			} else {
				caseSpan.SetAttr("status", "ok")
				caseSpan.SetAttr("calls", strconv.Itoa(len(tc.Calls)))
			}
			caseSpan.End()
			if opts.Metrics != nil {
				opts.Metrics.Inc("soak.cases", 1)
				opts.Metrics.Observe("soak.case-gen", label, time.Since(began))
			}
		}()
		var budget *sandbox.Budget
		if opts.StepBudget > 0 {
			budget = sandbox.NewBudget(opts.StepBudget, 0)
		}
		rng := domain.NewRand(domain.DeriveSeed(opts.Seed, "soak:"+strconv.Itoa(i)))
		tr, err := g.RandomWalk(rng, opts.MaxLength)
		if err != nil {
			return TestCase{}, fmt.Errorf("driver: soak generation for %q: %w", spec.Class.Name, err)
		}
		combo := make([]string, len(tr.Path))
		for j, nodeID := range tr.Path {
			if err := budget.Step(); err != nil {
				return TestCase{}, fmt.Errorf("driver: soak case %d: %w", i, err)
			}
			n, ok := spec.NodeByID(string(nodeID))
			if !ok || len(n.Methods) == 0 {
				return TestCase{}, fmt.Errorf("driver: walk visited unusable node %s", nodeID)
			}
			combo[j] = n.Methods[rng.IntN(len(n.Methods))]
		}
		return buildCase(spec, tr, combo, rng, i)
	}

	cases := make([]TestCase, opts.Cases)
	err = fanout.Run(opts.Cases, opts.Parallelism, nil, func(_ struct{}, i int) error {
		var err error
		cases[i], err = genCase(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Suite{
		Component: spec.Class.Name,
		Seed:      opts.Seed,
		Criterion: "random-walk",
		Cases:     cases,
	}, nil
}
