package testexec

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"concat/internal/component"
	"concat/internal/domain"
	"concat/internal/driver"
	"concat/internal/sandbox"
)

// chaosSuiteN builds a Chaos suite whose single case pokes n times before
// the destructor.
func chaosSuiteN(n int) *driver.Suite {
	calls := []driver.Call{{MethodID: "m1", Method: "Chaos"}}
	for i := 0; i < n; i++ {
		calls = append(calls, driver.Call{MethodID: "m3", Method: "Poke"})
	}
	calls = append(calls, driver.Call{MethodID: "m2", Method: "~Chaos"})
	return &driver.Suite{
		Component: "Chaos",
		Cases: []driver.TestCase{{
			ID:          "TC0",
			Transaction: "n1>n2>n3",
			Calls:       calls,
		}},
	}
}

func TestStepBudgetExhaustsDispatch(t *testing.T) {
	// 20 pokes but only 5 steps of budget: the executor's per-call charge
	// runs dry at a deterministic call.
	rep, err := Run(chaosSuiteN(20), &chaosFactory{}, Options{StepBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomeResourceExhausted {
		t.Fatalf("outcome = %s (%s), want resource-exhausted", res.Outcome, res.Detail)
	}
	if !strings.Contains(res.Detail, "step budget exhausted") {
		t.Errorf("detail = %q", res.Detail)
	}
	// Determinism: the same budget cuts at the same point every run.
	rep2, err := Run(chaosSuiteN(20), &chaosFactory{}, Options{StepBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Transcript != rep2.Results[0].Transcript ||
		rep.Results[0].Detail != rep2.Results[0].Detail {
		t.Error("budget exhaustion not deterministic")
	}
}

func TestStepBudgetGenerousCasePasses(t *testing.T) {
	rep, err := Run(chaosSuiteN(3), &chaosFactory{}, Options{StepBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Outcome != OutcomePass {
		t.Errorf("outcome = %s (%s)", rep.Results[0].Outcome, rep.Results[0].Detail)
	}
}

// burnInstance loops on its own BIT services until the guard's budget stops
// it — without a budget its Poke would spin a very long time.
type burnInstance struct{ chaos }

func (b *burnInstance) Invoke(method string, args []domain.Value) ([]domain.Value, error) {
	if method == "Poke" {
		for i := 0; i < 1<<30; i++ {
			if err := b.InvariantTest(); err != nil {
				return nil, err
			}
		}
	}
	return b.chaos.Invoke(method, args)
}

type burnFactory struct{ chaosFactory }

func (f *burnFactory) New(ctor string, args []domain.Value) (component.Instance, error) {
	return &burnInstance{}, nil
}

func TestStepBudgetChargesBITGuard(t *testing.T) {
	rep, err := Run(chaosSuite(), &burnFactory{}, Options{StepBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomeResourceExhausted {
		t.Fatalf("outcome = %s (%s), want resource-exhausted", res.Outcome, res.Detail)
	}
	if res.Method != "Poke" {
		t.Errorf("method = %q, want Poke", res.Method)
	}
}

// floodInstance returns a huge result from every Poke, flooding the
// transcript.
type floodInstance struct{ chaos }

func (f *floodInstance) Invoke(method string, args []domain.Value) ([]domain.Value, error) {
	if method == "Poke" {
		return []domain.Value{domain.Str(strings.Repeat("x", 4096))}, nil
	}
	return f.chaos.Invoke(method, args)
}

type floodFactory struct{ chaosFactory }

func (f *floodFactory) New(ctor string, args []domain.Value) (component.Instance, error) {
	return &floodInstance{}, nil
}

func TestTranscriptCapCutsFloodingCase(t *testing.T) {
	rep, err := Run(chaosSuiteN(1000), &floodFactory{}, Options{MaxTranscriptBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomeResourceExhausted {
		t.Fatalf("outcome = %s (%s), want resource-exhausted", res.Outcome, res.Detail)
	}
	if !strings.Contains(res.Detail, "transcript budget exhausted") {
		t.Errorf("detail = %q", res.Detail)
	}
	if !strings.Contains(res.Transcript, "[transcript truncated at 16384 bytes]") {
		t.Error("transcript missing truncation marker")
	}
	if int64(len(res.Transcript)) > (16<<10)+128 {
		t.Errorf("transcript length %d exceeds cap plus marker", len(res.Transcript))
	}
}

func TestTranscriptCapGenerousCasePasses(t *testing.T) {
	rep, err := Run(chaosSuiteN(3), &chaosFactory{}, Options{MaxTranscriptBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomePass {
		t.Errorf("outcome = %s (%s)", res.Outcome, res.Detail)
	}
	if strings.Contains(res.Transcript, "truncated") {
		t.Error("unexpected truncation marker")
	}
}

func TestTimeoutResultCarriesSeedAndPartialTranscript(t *testing.T) {
	opts := Options{Seed: 99, CaseTimeout: 50 * time.Millisecond}
	rep, err := Run(chaosSuite(), &hangFactory{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %s", res.Outcome)
	}
	if want := CaseSeed(99, "TC0"); res.Seed != want {
		t.Errorf("timeout result seed = %d, want %d", res.Seed, want)
	}
	// The constructor's NEW line was written before the hang; the timeout
	// result must carry it plus the timeout marker.
	if !strings.Contains(res.Transcript, "NEW Chaos()") {
		t.Errorf("partial transcript missing NEW line: %q", res.Transcript)
	}
	if !strings.Contains(res.Transcript, "[case timed out after") {
		t.Errorf("partial transcript missing timeout marker: %q", res.Transcript)
	}
	if rep.AbandonedGoroutines != 1 {
		t.Errorf("AbandonedGoroutines = %d, want 1", rep.AbandonedGoroutines)
	}
}

func TestLeakLedgerSharedAcrossRuns(t *testing.T) {
	ledger := sandbox.NewLedger()
	opts := Options{CaseTimeout: 50 * time.Millisecond, LeakLedger: ledger}
	for i := 0; i < 2; i++ {
		rep, err := Run(chaosSuite(), &hangFactory{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AbandonedGoroutines != 1 {
			t.Fatalf("run %d: AbandonedGoroutines = %d, want 1", i, rep.AbandonedGoroutines)
		}
	}
	if ledger.Abandoned() != 2 {
		t.Errorf("shared ledger abandoned = %d, want 2", ledger.Abandoned())
	}
	// The hung goroutines never finish, so they are still outstanding.
	if ledger.Outstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", ledger.Outstanding())
	}

	// Concurrent runs on one ledger: each report counts its own abandoned
	// case, not whatever else the ledger saw while it ran.
	shared := sandbox.NewLedger()
	opts.LeakLedger = shared
	var wg sync.WaitGroup
	abandoned := make([]int, 2)
	errs := make([]error, 2)
	for i := range abandoned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Run(chaosSuite(), &hangFactory{}, opts)
			if errs[i] = err; err == nil {
				abandoned[i] = rep.AbandonedGoroutines
			}
		}()
	}
	wg.Wait()
	for i := range abandoned {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if abandoned[i] != 1 {
			t.Errorf("concurrent run %d: AbandonedGoroutines = %d, want 1", i, abandoned[i])
		}
	}
	if shared.Abandoned() != 2 {
		t.Errorf("concurrently shared ledger abandoned = %d, want 2", shared.Abandoned())
	}
}

func TestLedgerSettlesSlowButFiniteCase(t *testing.T) {
	ledger := sandbox.NewLedger()
	rep, err := Run(chaosSuite(), &slowFactory{}, Options{
		CaseTimeout: 20 * time.Millisecond,
		LeakLedger:  ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %s", rep.Results[0].Outcome)
	}
	// The slow case finishes ~180ms after abandonment and settles its entry.
	deadline := time.Now().Add(5 * time.Second)
	for ledger.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ledger never settled: outstanding = %d", ledger.Outstanding())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ledger.Abandoned() != 1 || ledger.Settled() != 1 {
		t.Errorf("abandoned = %d settled = %d", ledger.Abandoned(), ledger.Settled())
	}
}

// slowInstance sleeps past the case timeout but does finish.
type slowInstance struct{ chaos }

func (s *slowInstance) Invoke(method string, args []domain.Value) ([]domain.Value, error) {
	if method == "Poke" {
		time.Sleep(200 * time.Millisecond)
	}
	return s.chaos.Invoke(method, args)
}

type slowFactory struct{ chaosFactory }

func (f *slowFactory) New(ctor string, args []domain.Value) (component.Instance, error) {
	return &slowInstance{}, nil
}

// panicOracle panics from Check — a harness hook, outside runCase's recover.
type panicOracle struct{}

func (panicOracle) Check(caseID, transcript string) error { panic("oracle exploded") }

func TestOraclePanicIsContained(t *testing.T) {
	rep, err := Run(chaosSuite(), &chaosFactory{}, Options{Oracle: panicOracle{}})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomePanic {
		t.Fatalf("outcome = %s, want crash", res.Outcome)
	}
	if !strings.Contains(res.Detail, "panic in harness hook") {
		t.Errorf("detail = %q", res.Detail)
	}
	if res.CaseID != "TC0" || res.Seed == 0 {
		t.Errorf("recovered result lost identity: %+v", res)
	}
}

// panicForkFactory panics from Fork — the other pre-runCase harness hook.
type panicForkFactory struct{ chaosFactory }

func (f *panicForkFactory) Fork() component.Factory { panic("fork exploded") }

func TestForkPanicIsContained(t *testing.T) {
	rep, err := Run(chaosSuite(), &panicForkFactory{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != OutcomePanic {
		t.Fatalf("outcome = %s, want crash", res.Outcome)
	}
	if !strings.Contains(res.Detail, "panic in harness hook: fork exploded") {
		t.Errorf("detail = %q", res.Detail)
	}
}

func TestHarnessHookPanicDoesNotCrashParallelRun(t *testing.T) {
	s := &driver.Suite{Component: "Chaos"}
	for i := 0; i < 8; i++ {
		c := chaosSuite().Cases[0]
		c.ID = c.ID + strings.Repeat("x", i) // unique IDs
		s.Cases = append(s.Cases, c)
	}
	rep, err := Run(s, &panicForkFactory{}, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Outcome != OutcomePanic {
			t.Fatalf("case %s outcome = %s", res.CaseID, res.Outcome)
		}
	}
}

func TestResourceOutcomesIdenticalSerialAndParallel(t *testing.T) {
	s := &driver.Suite{Component: "Chaos"}
	base := chaosSuiteN(50).Cases[0]
	for i := 0; i < 6; i++ {
		c := base
		c.ID = base.ID + strings.Repeat("y", i)
		s.Cases = append(s.Cases, c)
	}
	opts := Options{Seed: 7, StepBudget: 10, MaxTranscriptBytes: 4 << 10}
	serial, err := Run(s, &chaosFactory{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := Run(s, &chaosFactory{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Results {
		if !reflect.DeepEqual(serial.Results[i], par.Results[i]) {
			t.Fatalf("case %s differs between serial and parallel:\n%+v\nvs\n%+v",
				serial.Results[i].CaseID, serial.Results[i], par.Results[i])
		}
	}
}

func TestOutcomeResourceExhaustedString(t *testing.T) {
	if got := OutcomeResourceExhausted.String(); got != "resource-exhausted" {
		t.Errorf("String() = %q", got)
	}
}

// TestMissingCaseServerBinaryIsSpawnError: when the case server cannot be
// spawned at all, every case of the run is recorded as a harness error
// carrying the spawn failure — in both child modes, serial and parallel —
// and Run itself still succeeds.
func TestMissingCaseServerBinaryIsSpawnError(t *testing.T) {
	s := &driver.Suite{Component: "Chaos"}
	for i := 0; i < 3; i++ {
		tc := chaosSuite().Cases[0]
		tc.ID = fmt.Sprintf("TC%d", i)
		s.Cases = append(s.Cases, tc)
	}
	missing := filepath.Join(t.TempDir(), "no-such-case-server")
	modes := []struct {
		name string
		mode IsolationMode
	}{{"subprocess", IsolateSubprocess}, {"pool", IsolatePool}}
	for _, m := range modes {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", m.name, par), func(t *testing.T) {
				rep, err := Run(s, &chaosFactory{}, Options{
					Seed:             7,
					Isolation:        m.mode,
					IsolationCommand: []string{missing},
					Parallelism:      par,
					BatchSize:        2,
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if len(rep.Results) != len(s.Cases) {
					t.Fatalf("got %d results, want %d", len(rep.Results), len(s.Cases))
				}
				for i, res := range rep.Results {
					if res.CaseID != s.Cases[i].ID || res.Seed != CaseSeed(7, res.CaseID) {
						t.Errorf("result %d lost case identity: %+v", i, res)
					}
					if res.Outcome != OutcomeError || !strings.HasPrefix(res.Detail, "spawning case server: ") ||
						!strings.Contains(res.Detail, missing) {
						t.Errorf("case %s: %s %q, want a spawn error naming %s", res.CaseID, res.Outcome, res.Detail, missing)
					}
				}
			})
		}
	}
}
