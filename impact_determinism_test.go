// Impact-analysis determinism suite: for every built-in component, an
// impact-driven partial re-run (old spec = a perturbed revision, new spec =
// the real one) must reassemble a final report and coverage artifact
// byte-identical to a cold full run of the new spec's suite — warm replay
// is an execution-avoidance strategy, never an oracle input — and once the
// store is primed, an identical-spec diff must re-execute nothing.
package concat

import (
	"os"
	"sort"
	"testing"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/obs"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

// impactPerturb clones the component's spec into a plausible "previous
// revision": degenerate the first range parameter domain, or, for specs
// without one, change a method's return type. Either way DiffSpecs sees a
// non-empty impact set, so the run exercises all three partitions' paths.
func impactPerturb(t *testing.T, s *tspec.Spec) *tspec.Spec {
	t.Helper()
	cp := s.Clone()
	for i, m := range cp.Methods {
		for j, p := range m.Params {
			if p.Domain.Kind == tspec.DomRange && p.Domain.Lo != p.Domain.Hi {
				cp.Methods[i].Params[j].Domain.Hi = p.Domain.Lo
				return cp
			}
		}
	}
	for i, m := range cp.Methods {
		if m.Category != tspec.CatConstructor && m.Category != tspec.CatDestructor {
			cp.Methods[i].Return = m.Return + "X"
			return cp
		}
	}
	t.Fatalf("spec %s has nothing to perturb", s.Class.Name)
	return nil
}

// TestImpactByteIdenticalToColdRun is the impact engine's correctness bar,
// enforced component by component and with the invalidated cases executed
// in process and on the warm worker pool: the partial re-run's assembled
// report and coverage artifact reproduce the bytes of a cold full run in
// process exactly, and a subsequent identical-spec analysis against the
// primed store re-executes zero cases.
func TestImpactByteIdenticalToColdRun(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	modes := []struct {
		name string
		exec testexec.Options
	}{
		{"in-process", testexec.Options{}},
		{"pool", testexec.Options{
			Isolation:        testexec.IsolatePool,
			IsolationCommand: []string{exe},
			IsolationEnv:     raceFriendlyEnv,
		}},
	}
	targets := core.Targets()
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		target := targets[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) { impactMatchesColdRun(t, target, mode.exec) })
			}
		})
	}
}

// impactMatchesColdRun runs one component's perturbed-spec impact analysis
// with the given execution options and checks it against a cold run. The
// invalidated cases run as one suite, on pool workers under IsolatePool.
func impactMatchesColdRun(t *testing.T, target core.Target, exec testexec.Options) {
	metrics := obs.NewMetrics()
	exec.Metrics = metrics
	comp := target.New(nil)
	spec := comp.Spec()
	old := impactPerturb(t, spec)
	r := &impact.Runner{
		Factory:   comp.Factory,
		Providers: comp.Providers,
		Gen:       driver.Options{Seed: 42},
		Exec:      exec,
		Store:     store.NewMem(),
	}
	res, err := r.Run(old, spec)
	if err != nil {
		t.Fatalf("impact run: %v", err)
	}
	if res.Report.Rerun+res.Report.Regenerated == 0 {
		t.Fatalf("perturbation invalidated nothing; the partial-re-run path went unexercised")
	}
	counters := metrics.Snapshot().Counters
	if counters["suite.runs"] != 1 {
		t.Errorf("invalidated partition ran as %d suites, want 1", counters["suite.runs"])
	}
	if pooled := counters["pool.batches"] > 0; pooled != (exec.Isolation == testexec.IsolatePool) {
		t.Errorf("isolation %v dispatched %d pool batches", exec.Isolation, counters["pool.batches"])
	}

	cold, err := target.New(nil).RunSuite(res.Suite, testexec.Options{})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if got, want := reportBytes(t, res.Final), reportBytes(t, cold); string(got) != string(want) {
		t.Errorf("impact-reassembled report deviates from the cold run:\ngot:  %s\nwant: %s", got, want)
	}

	g, err := spec.TFM()
	if err != nil {
		t.Fatalf("lowering spec: %v", err)
	}
	coldArt, err := cover.FromRun(g, res.Suite, cold)
	if err != nil {
		t.Fatalf("cold coverage: %v", err)
	}
	want, err := coldArt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Coverage.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("impact coverage artifact deviates from the cold run's")
	}

	// The first run stored every case; an identical-spec analysis now
	// replays the whole suite without executing a single case.
	warm, err := r.Run(spec, spec)
	if err != nil {
		t.Fatalf("warm identical run: %v", err)
	}
	if warm.Report.Rerun+warm.Report.Regenerated != 0 || warm.Report.CacheMisses != 0 {
		t.Errorf("identical-spec analysis re-executed work: %d rerun, %d regenerated, %d misses",
			warm.Report.Rerun, warm.Report.Regenerated, warm.Report.CacheMisses)
	}
	if got := reportBytes(t, warm.Final); string(got) != string(reportBytes(t, cold)) {
		t.Errorf("fully-warm report deviates from the cold run")
	}
}
