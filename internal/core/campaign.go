// The campaign steps every front end runs: `concat mutate`, `concat impact`
// and `concat selftest -cache-dir`, a service job, and a fleet worker's
// shard. Each kind of campaign is run and covered here once.
package core

import (
	"io"

	"concat/internal/analysis"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/tspec"
)

// Campaign is one finished campaign of either kind: a mutation campaign of
// the target's generated suite, or an impact run of a spec edit.
type Campaign struct {
	// Suite is the suite the campaign ran, generated from spec.
	Suite *driver.Suite
	// Mutation is a mutation campaign's analysis; nil for an impact run.
	Mutation *analysis.Result
	// Impact is an impact run's result; nil for a mutation campaign.
	Impact *impact.Result
	spec   *tspec.Spec
}

// Mutate generates the target's suite under gen and runs its mutation
// campaign on it under o.
func (t Target) Mutate(gen driver.Options, methods []string, progress io.Writer, o MutationOptions) (*Campaign, error) {
	spec := t.New(nil).Spec()
	suite, err := driver.Generate(spec, gen)
	if err != nil {
		return nil, err
	}
	res, err := t.analyze(suite, methods, progress, o)
	if err != nil {
		return nil, err
	}
	return &Campaign{Suite: suite, Mutation: res, spec: spec}, nil
}

// Impact runs the impact engine on the target for an edit from oldSpec to
// newSpec: the cases the edit invalidates execute under o.Exec on
// o.Parallelism workers, and the rest replay from o.Store.
func (t Target) Impact(oldSpec, newSpec *tspec.Spec, gen driver.Options, o MutationOptions) (*Campaign, error) {
	comp := t.New(nil)
	r := &impact.Runner{
		Factory:       comp.Factory,
		Providers:     comp.Providers,
		Gen:           gen,
		Exec:          o.Exec,
		Store:         o.Store,
		Parallelism:   o.Parallelism,
		MutantMethods: t.MutantMethods(),
	}
	res, err := r.Run(oldSpec, newSpec)
	if err != nil {
		return nil, err
	}
	return &Campaign{Suite: res.Suite, Impact: res, spec: newSpec}, nil
}

// Coverage returns the campaign's coverage artifact against its spec's
// TFM: what `-cover` writes and the service serves on /coverage.
func (c *Campaign) Coverage() (*cover.Artifact, error) {
	if c.Impact != nil {
		return c.Impact.Coverage, nil
	}
	g, err := c.spec.TFM()
	if err != nil {
		return nil, err
	}
	return cover.FromCampaign(g, c.Suite, c.Mutation)
}
