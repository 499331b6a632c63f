// Warm-pool dispatch benchmark: the point of the worker pool is that a
// crash-contained case costs one pipe round-trip instead of one process
// spawn. This test measures per-case latency of spawn-per-case isolation
// (cold) against warm-pool batched dispatch on the same suite, asserts the
// pool is actually faster — the claim holds even on a single CPU, because
// the saving is fork/exec cost, not parallelism. concatbench is the
// maintained benchmark.
package concat

import (
	"os"
	"runtime"
	"testing"
	"time"

	"concat/internal/core"
	"concat/internal/driver"
	"concat/internal/testexec"
)

// timeIsolationMode runs the suite `reps` times under the given isolation
// mode and returns the mean per-case latency.
func timeIsolationMode(t *testing.T, comp *core.Component, suite *driver.Suite, mode testexec.IsolationMode, reps int) time.Duration {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	opts := testexec.Options{Seed: 42, Isolation: mode, IsolationCommand: []string{exe}, IsolationEnv: raceFriendlyEnv}
	start := time.Now()
	cases := 0
	for i := 0; i < reps; i++ {
		rep, err := comp.RunSuite(suite, opts)
		if err != nil {
			t.Fatalf("suite run under mode %v: %v", mode, err)
		}
		cases += len(rep.Results)
	}
	if cases == 0 {
		t.Fatal("suite produced no cases to time")
	}
	return time.Since(start) / time.Duration(cases)
}

// TestPoolWarmDispatchFasterThanColdSpawn is the pool's performance
// acceptance (and the CI bench smoke): per-case latency under warm-pool
// dispatch must beat spawn-per-case isolation. No margin multiplier is
// applied — a pool that cannot beat one fork/exec per case has no reason
// to exist.
func TestPoolWarmDispatchFasterThanColdSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a few hundred child processes to time them")
	}
	comp := Target("Account")
	suite, err := comp.GenerateSuite(driver.Options{Seed: 42})
	if err != nil {
		t.Fatalf("generating suite: %v", err)
	}
	const reps = 3
	cold := timeIsolationMode(t, comp, suite, testexec.IsolateSubprocess, reps)
	warm := timeIsolationMode(t, comp, suite, testexec.IsolatePool, reps)
	ratio := float64(cold) / float64(warm)
	t.Logf("per-case latency over %d cases x %d reps: cold spawn %v, warm pool %v (%.1fx) on %d CPU(s)",
		len(suite.Cases), reps, cold, warm, ratio, runtime.NumCPU())
	if warm >= cold {
		t.Errorf("warm dispatch (%v/case) not faster than cold spawn (%v/case)", warm, cold)
	}

}
