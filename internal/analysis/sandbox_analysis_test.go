// End-to-end proof of the hardened sandbox at the campaign level: a
// mutation analysis over a component whose mutants include genuinely fatal
// faults (os.Exit, stack exhaustion) completes under subprocess isolation,
// classifies those mutants as crash kills, reconstructs reach/infection
// flags from the case servers' Extra payloads, and produces the same result
// serially and in parallel.
package analysis_test

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"concat/internal/analysis"
	"concat/internal/component"
	"concat/internal/mutation"
	"concat/internal/sandbox/hostile"
	"concat/internal/testexec"
)

// TestMain doubles this test binary as a case server (see the same pattern
// in internal/sandbox/hostile): when spawned with ServerEnv set it serves
// isolated cases over the batch protocol both child modes share, and
// exits instead of running the tests.
func TestMain(m *testing.M) {
	if served, err := testexec.ServeFromEnv(os.Stdin, os.Stdout, hostile.CaseResolver()); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fatalCampaign runs the full HostileMut mutant set — including the fatal
// "hard" (os.Exit) and "boom" (stack overflow) candidates — under subprocess
// isolation at the given parallelism.
func fatalCampaign(t *testing.T, parallelism int) *analysis.Result {
	return fatalCampaignMode(t, parallelism, testexec.IsolateSubprocess)
}

// fatalCampaignMode is fatalCampaign with a selectable isolation mode, so
// the warm-pool campaign can be asserted verdict-identical to spawn-mode.
func fatalCampaignMode(t *testing.T, parallelism int, mode testexec.IsolationMode) *analysis.Result {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	eng := mutation.NewEngine()
	eng.MustRegisterSites(hostile.MutSites()...)
	a := &analysis.Analysis{
		Engine:  eng,
		Factory: hostile.NewMutFactory(eng),
		Suite:   hostile.MutSuite(3),
		Exec: testexec.Options{
			Seed:             42,
			Isolation:        mode,
			IsolationCommand: []string{exe},
		},
		Parallelism: parallelism,
		NewFactory: func(e *mutation.Engine) component.Factory {
			return hostile.NewMutFactory(e)
		},
	}
	res, err := a.Run(eng.Enumerate(nil, nil))
	if err != nil {
		t.Fatalf("campaign with fatal mutants did not complete: %v", err)
	}
	return res
}

// findMutant returns the result for the mutant with the given operator and
// replacement.
func findMutant(t *testing.T, res *analysis.Result, op mutation.Operator, repl string) analysis.MutantResult {
	t.Helper()
	for _, mr := range res.Mutants {
		if mr.Mutant.Operator == op && mr.Mutant.Replacement == repl {
			return mr
		}
	}
	t.Fatalf("no %s(%s) mutant in result (%d mutants)", op, repl, len(res.Mutants))
	return analysis.MutantResult{}
}

// TestFatalMutantCampaignCompletes is the sandbox acceptance test: the
// campaign with process-killing mutants runs to completion, the fatal
// mutants are killed by crash, and the equivalent mutant is recognized from
// the flags the case servers shipped back.
func TestFatalMutantCampaignCompletes(t *testing.T) {
	res := fatalCampaign(t, 1)

	// BitNeg + RepLoc(soft) + RepGlob(hard) + RepExt(boom) + 5 RepReq ints.
	if len(res.Mutants) != 9 {
		t.Fatalf("campaign analyzed %d mutants, want 9", len(res.Mutants))
	}

	hard := findMutant(t, res, mutation.OpRepGlob, "hard")
	if !hard.Killed || hard.Reason != analysis.KillCrash {
		t.Errorf("os.Exit mutant: killed=%v reason=%v, want a crash kill", hard.Killed, hard.Reason)
	}
	boom := findMutant(t, res, mutation.OpRepExt, "boom")
	if !boom.Killed || boom.Reason != analysis.KillCrash {
		t.Errorf("stack-overflow mutant: killed=%v reason=%v, want a crash kill", boom.Killed, boom.Reason)
	}

	// The equivalent mutant survives, and — although it executed only inside
	// child processes — its reach-without-infection record made it back to
	// the parent through CaseResult.Extra.
	soft := findMutant(t, res, mutation.OpRepLoc, "soft")
	if soft.Killed {
		t.Errorf("equivalent mutant was killed: %+v", soft)
	}
	if !soft.Reached || soft.Infected || !soft.Equivalent() {
		t.Errorf("equivalent mutant flags = reached:%v infected:%v, want reached-only", soft.Reached, soft.Infected)
	}

	neg := findMutant(t, res, mutation.OpBitNeg, "~")
	if !neg.Killed || neg.Reason != analysis.KillAssertion {
		t.Errorf("negation mutant: killed=%v reason=%v, want an assertion kill (negative counter)", neg.Killed, neg.Reason)
	}
}

// TestFatalCampaignIdenticalSerialAndParallel: crash containment must not
// cost determinism — the serial and parallel campaigns (child processes and
// all) agree bit-for-bit, reference report included.
func TestFatalCampaignIdenticalSerialAndParallel(t *testing.T) {
	serial := fatalCampaign(t, 1)
	parallel := fatalCampaign(t, 4)
	if !reflect.DeepEqual(serial.Mutants, parallel.Mutants) {
		t.Errorf("mutant results differ between serial and parallel campaigns:\nserial:   %+v\nparallel: %+v",
			serial.Mutants, parallel.Mutants)
	}
	if !reflect.DeepEqual(serial.Reference, parallel.Reference) {
		t.Errorf("reference reports differ between serial and parallel campaigns")
	}
}

// TestFatalCampaignPoolVerdictUnchanged is the warm pool's campaign-level
// acceptance: the same fatal-mutant campaign dispatched in batches to
// long-lived workers — one pool shared across the reference run and every
// mutant, workers dying mid-campaign on the fatal candidates — produces
// the exact kill matrix of the spawn-per-case campaign, serially and in
// parallel. Crash containment amortized must not move a single verdict.
func TestFatalCampaignPoolVerdictUnchanged(t *testing.T) {
	spawn := fatalCampaign(t, 1)
	poolSerial := fatalCampaignMode(t, 1, testexec.IsolatePool)
	poolParallel := fatalCampaignMode(t, 4, testexec.IsolatePool)
	if !reflect.DeepEqual(spawn.Mutants, poolSerial.Mutants) {
		t.Errorf("kill matrix differs between spawn and pool isolation:\nspawn: %+v\npool:  %+v",
			spawn.Mutants, poolSerial.Mutants)
	}
	if !reflect.DeepEqual(spawn.Reference, poolSerial.Reference) {
		t.Errorf("reference reports differ between spawn and pool isolation")
	}
	if !reflect.DeepEqual(poolSerial.Mutants, poolParallel.Mutants) {
		t.Errorf("pool campaign differs between serial and parallel scheduling:\nserial:   %+v\nparallel: %+v",
			poolSerial.Mutants, poolParallel.Mutants)
	}
	if !reflect.DeepEqual(poolSerial.Reference, poolParallel.Reference) {
		t.Errorf("pool reference reports differ between serial and parallel scheduling")
	}
}
