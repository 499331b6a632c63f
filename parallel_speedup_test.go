package concat

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"concat/internal/analysis"
	"concat/internal/experiments"
)

// runExperiment1At runs the Table 2 campaign with the given worker count
// and returns the result plus the campaign's wall-clock time (setup and
// suite derivation excluded).
func runExperiment1At(t *testing.T, parallelism int) (*analysis.Result, time.Duration) {
	t.Helper()
	cfg := experiments.Default()
	cfg.Parallelism = parallelism
	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	start := time.Now()
	res, err := setup.Experiment1(nil)
	if err != nil {
		t.Fatalf("experiment 1 at parallelism %d: %v", parallelism, err)
	}
	return res, time.Since(start)
}

// speedupAssertion reports whether this machine can honestly assert a
// parallel speedup, and if not, why. Scheduling `workers` goroutine workers
// onto fewer OS CPUs measures contention, not parallelism — on such boxes
// the speedup number is logged but asserted against nothing, and the
// logged reason documents the gap so a CI reader knows the assertion was
// skipped deliberately rather than silently.
func speedupAssertion(workers int) (enforce bool, reason string) {
	cpus := runtime.NumCPU()
	if cpus < 4 {
		return false, fmt.Sprintf("skipped: %d CPU(s) < 4 — no parallel speedup available on this machine", cpus)
	}
	if cpus < workers {
		return false, fmt.Sprintf("skipped: %d CPUs < %d workers — oversubscribed, wall clock measures contention", cpus, workers)
	}
	return true, "enforced: >=2x at 4 workers"
}

// TestParallelCampaignIdenticalKillMatrix is the acceptance check for the
// sharded mutation engine: the parallel campaign must produce the exact
// kill matrix of the serial campaign — same mutants in the same order,
// same verdict, same kill reason, same killing case, same reached/infected
// flags. Wall-clock speedup is measured and logged; the ≥2x assertion only
// applies when the machine can honestly deliver one (see speedupAssertion),
// and the log keeps the actual runtime.NumCPU() plus the enforcement
// decision either way. concatbench is the maintained benchmark.
func TestParallelCampaignIdenticalKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table 2 campaign twice")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	serial, serialDur := runExperiment1At(t, 1)
	par, parDur := runExperiment1At(t, workers)

	if len(par.Mutants) != len(serial.Mutants) {
		t.Fatalf("mutant counts differ: serial %d, parallel %d", len(serial.Mutants), len(par.Mutants))
	}
	for i := range serial.Mutants {
		want, got := serial.Mutants[i], par.Mutants[i]
		if got.Mutant.ID != want.Mutant.ID {
			t.Fatalf("mutant %d: ID %q vs %q — enumeration order diverged", i, got.Mutant.ID, want.Mutant.ID)
		}
		if got.Killed != want.Killed || got.Reason != want.Reason ||
			got.KillingCase != want.KillingCase ||
			got.Reached != want.Reached || got.Infected != want.Infected {
			t.Errorf("mutant %s verdict diverged:\n serial: killed=%v reason=%v case=%s reached=%v infected=%v\n parallel: killed=%v reason=%v case=%s reached=%v infected=%v",
				want.Mutant.ID,
				want.Killed, want.Reason, want.KillingCase, want.Reached, want.Infected,
				got.Killed, got.Reason, got.KillingCase, got.Reached, got.Infected)
		}
	}

	speedup := float64(serialDur) / float64(parDur)
	enforce, reason := speedupAssertion(workers)
	t.Logf("campaign: %d mutants; serial %v, parallel(%d) %v, speedup %.2fx on %d CPUs (%s)",
		len(serial.Mutants), serialDur, workers, parDur, speedup, runtime.NumCPU(), reason)
	if enforce && speedup < 2.0 {
		t.Errorf("parallel campaign speedup %.2fx < 2x with %d workers on %d CPUs", speedup, workers, runtime.NumCPU())
	}

}
