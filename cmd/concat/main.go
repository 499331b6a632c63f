// Command concat is the prototype tool of the paper (§3.1): it supports the
// construction and use of self-testable components — validating t-specs,
// rendering transaction flow models, generating executable test suites from
// a component's embedded specification, running them with the built-in test
// facilities enabled, deriving subclass suites incrementally, emitting
// standalone Go drivers, and evaluating test sets by interface mutation.
//
// Usage:
//
//	concat list
//	concat validate  <spec.tspec>
//	concat graph     <spec.tspec> [-highlight n1,n3,n5,n6]
//	concat paths     <spec.tspec> [-k N] [-criterion all-transactions|all-links|all-nodes]
//	concat gen       -component NAME | -spec FILE  [-seed N] [-expand] [-alt N] [-k N] [-out FILE]
//	concat run       -component NAME -suite FILE [-log FILE] [sandbox flags]
//	concat selftest  -component NAME [-seed N] [-expand] [-alt N] [-cache-dir DIR] [-cover FILE] [sandbox flags]
//	concat derive    -parent NAME -child NAME [-seed N] [-out FILE]
//	concat mutate    -component NAME [-methods M1,M2] [-seed N] [-v] [-cache-dir DIR] [-cover FILE] [-parallel N] [sandbox flags]
//	concat emit      -component NAME [-seed N] -import PATH -factory EXPR [-out FILE]
//	concat trace-validate [trace.ndjson | -]
//	concat cover     -artifact FILE [-dot]
//	concat serve     [-addr HOST:PORT] [-cache-dir DIR] [-journal DIR] [-workers N] [-queue N] [-max-retries N] [-drain-timeout D] [-shard-lease D] [-pprof] [-trace-buf N]
//	concat submit    [-addr URL] -component NAME [-seed N] [-distributed [-shards N]] [-wait]
//	concat status    [-addr URL] [-id ID]
//	concat work      [-coordinator URL] [-store-dir DIR] [-parallelism N] [-poll D] [-idle-exit D]
//
// The suite-running subcommands (run, selftest, soak, mutate) share the
// sandbox flags: -isolate executes every case in a crash-contained child
// process (the hidden `concat run-case` case server), -pool keeps the same
// containment but dispatches batches of cases to a pool of warm, long-lived
// workers (-pool-size N workers, -batch N cases per round-trip) so campaigns
// pay the process-spawn cost once per worker instead of once per case,
// -budget N bounds the cooperative steps a case may take, -max-transcript N
// caps its transcript, and -timeout D bounds its wall-clock time. They also share the
// observability flags: -trace FILE streams NDJSON spans (suite → case →
// call / child-spawn) and -metrics FILE writes an aggregated snapshot of
// counters and duration histograms at exit. Both are side channels —
// reports and tables are byte-identical with or without them.
//
// selftest and mutate additionally accept -cache-dir DIR, a
// content-addressed verdict store: a warm re-run of an unchanged campaign
// is served from the store (byte-identical output), and after a change only
// the affected mutants re-execute. `concat serve` shares one such store
// across all submitted campaigns.
//
// selftest and mutate also accept -cover FILE, writing the canonical-JSON
// coverage artifact: per-transaction/node/edge TFM coverage, the BIT
// assertion-site telemetry, and (for mutate) the mutant×case kill matrix
// with per-operator oracle attribution. The artifact is a pure function of
// the campaign, so serial/parallel and warm/cold runs write identical
// bytes. `concat cover` renders a stored artifact as text tables or, with
// -dot, as a heatmap overlay on the component's transaction flow model.
//
// # Exit codes
//
// concat exits 0 on success, 1 on any usage or execution error, and 2 when
// a campaign completes but its verdict is bad: a mutation campaign (mutate,
// or submit -wait) with surviving non-equivalent mutants, or an impact
// re-run whose final report has failing cases — distinguishing "the tool
// failed" from "the test set is inadequate" for CI pipelines.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"concat/internal/analysis"
	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/loadgen"
	"concat/internal/obs"
	"concat/internal/sandbox"
	"concat/internal/serve"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
	"concat/internal/tspec"
)

// errSurvivors is the sentinel behind exit code 2: the campaign ran to
// completion, but the test set failed to kill every non-equivalent mutant.
var errSurvivors = errors.New("mutants survived")

// errCasesFailed is the impact-side face of exit code 2: the partitioned
// re-run completed, but some of the final report's cases did not pass.
var errCasesFailed = errors.New("test cases failed")

func main() {
	// When the executor re-executes this binary as a case server (the
	// ServerEnv sentinel is set), serve its cases and exit before any
	// argument handling.
	core.MaybeServeCase()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "concat:", err)
		if errors.Is(err, errSurvivors) || errors.Is(err, errCasesFailed) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// checkSurvivors maps a finished campaign table to the exit-code contract:
// nil when every non-equivalent mutant was killed, errSurvivors otherwise.
func checkSurvivors(t *analysis.Table) error {
	if surv := t.Total.Mutants - t.Total.Killed - t.Total.Equivalent; surv > 0 {
		return fmt.Errorf("%d non-equivalent %w the test set", surv, errSurvivors)
	}
	return nil
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usageError("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		return cmdList(w)
	case "validate":
		return cmdValidate(rest, w)
	case "graph":
		return cmdGraph(rest, w)
	case "paths":
		return cmdPaths(rest, w)
	case "gen":
		return cmdGen(rest, w)
	case "run":
		return cmdRun(rest, w)
	case "selftest":
		return cmdSelfTest(rest, w)
	case "soak":
		return cmdSoak(rest, w)
	case "record":
		return cmdRecord(rest, w)
	case "regress":
		return cmdRegress(rest, w)
	case "derive":
		return cmdDerive(rest, w)
	case "mutate":
		return cmdMutate(rest, w)
	case "emit":
		return cmdEmit(rest, w)
	case "trace-validate":
		return cmdTraceValidate(rest, w)
	case "cover":
		return cmdCover(rest, w)
	case "impact":
		return cmdImpact(rest, w)
	case "spec":
		return cmdSpec(rest, w)
	case "serve":
		return cmdServe(rest, w)
	case "submit":
		return cmdSubmit(rest, w)
	case "status":
		return cmdStatus(rest, w)
	case "loadgen":
		return cmdLoadgen(rest, w)
	case "work":
		return cmdWork(rest, w)
	case "run-case":
		// Hidden: the case server behind -isolate and -pool. Reads batch
		// frames on stdin, writes result frames on stdout until stdin closes.
		return testexec.ServeCaseBatches(os.Stdin, w, core.CaseResolver())
	case "help", "-h", "--help":
		printUsage(w)
		return nil
	default:
		return usageError("unknown subcommand " + cmd)
	}
}

func usageError(msg string) error {
	return fmt.Errorf("%s (run 'concat help')", msg)
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, `concat — construction and use of self-testable components

subcommands:
  list       list the built-in self-testable components
  validate   parse and validate a t-spec file
  graph      render a t-spec's transaction flow model as Graphviz DOT
  paths      enumerate the transactions of a t-spec's model
  gen        generate an executable test suite from a t-spec
  run        execute a saved suite against a built-in component
  selftest   generate and execute in one step
  soak       random-walk (endurance) testing: sample and run random transactions
  record     run a suite and record its outputs as the golden reference
  regress    re-run a suite against a recorded golden reference (§2.4 regression testing)
  derive     derive a subclass suite with hierarchical incremental reuse
  mutate     evaluate a test set by interface mutation (Table 1 operators)
  emit       emit a standalone Go driver source for a suite
  trace-validate  check an NDJSON trace file (or - for stdin) against the span schema
  cover      render a stored coverage artifact (or - for stdin) as tables or a DOT heatmap
  impact     diff two t-spec revisions and re-run only the invalidated cases
  spec       export a t-spec (built-in or file) as canonical JSON
  serve      run the campaign service: an HTTP/JSON API over a job queue
  submit     submit a campaign to a running service (add -wait for the report)
  status     query a running service for campaign statuses
  loadgen    drive a running service with concurrent load and measure it
  work       run a remote campaign worker: lease shards from a coordinator

run, selftest, soak and mutate accept the sandbox flags: -isolate spawns
one crash-contained child per case; -pool dispatches batches of cases
(-batch N) to a pool of warm workers (-pool-size N) for the same
containment at a fraction of the spawn cost. Both modes produce reports
byte-identical to in-process execution.

run, selftest, soak and mutate accept -trace FILE (stream NDJSON spans)
and -metrics FILE (write an aggregated JSON snapshot at exit); both are
side channels that never change reports or tables.

selftest, mutate and serve accept -cache-dir DIR, a content-addressed
verdict store: unchanged campaigns are served from the store with
byte-identical output, and only mutants whose inputs changed re-execute.

serve additionally accepts -journal DIR, a write-ahead job journal:
submissions are journaled before they run, and a restarted service
replays pending and running campaigns — warm store hits make the replay
byte-identical. Crashed or wedged campaigns retry with capped exponential
backoff up to -max-retries times before quarantine, and SIGTERM drains
gracefully within -drain-timeout (default 30s).

submit -distributed (with -shards N, default 2) asks the service to fan the
campaign's mutants out to remote "concat work" processes, which lease
shards over HTTP, publish verdicts into the service's shared store, and
report back; the coordinator then merges warm from the store, so the
multi-worker report and coverage artifact are byte-identical to a
single-process run. Workers default to the coordinator's own /store
mount; -store-dir points them at a shared filesystem store instead.

loadgen drives a running service with -submitters N concurrent campaign
submitters and -subscribers M /events stream consumers for a fixed
-requests budget, measures client-side throughput and per-endpoint
p50/p95/p99 latency, verifies the 503 + Retry-After backpressure contract
under queue saturation, and cross-checks the service's /metrics request
counters against its own counts series by series; -json FILE writes the
measurement (BENCH_SERVICE.json by convention).

selftest and mutate accept -cover FILE, writing a canonical-JSON coverage
artifact (TFM transaction/node/edge coverage, BIT assertion-site telemetry,
and for mutate the kill matrix with per-operator oracle attribution);
identical campaigns write identical artifact bytes. The service exposes the
same artifact at /campaigns/{id}/coverage, live Prometheus metrics at
/metrics, and (with -pprof) net/http/pprof under /debug/pprof/.

impact -old A -new B diffs two revisions of a component's t-spec (either
notation; at most one may be - for stdin), computes the invalidated cases,
executes only those, and replays the rest byte-identically from the
-cache-dir verdict store; the final report and -cover artifact match a cold
full run on the new spec. -json prints the canonical impact artifact
(kept/re-run/regenerated counts, per-transaction reasons, cache accounting)
instead of the table; -artifact and -report save the artifact and the final
suite report to files. `+"`concat spec`"+` exports a built-in component's
embedded t-spec as the JSON that impact, gen and validate accept.

exit codes: 0 success; 1 error; 2 campaign finished but non-equivalent
mutants survived (mutate, submit -wait) or an impact re-run's final report
has failing cases (impact).`)
}

// loadSpecFile reads a t-spec in either notation: the textual form of
// Figure 3, or the canonical JSON wire form (`concat spec` output) —
// detected by the leading byte.
func loadSpecFile(path string) (*tspec.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	return parseSpecBytes(data)
}

// loadSpecArg is loadSpecFile with the stdin convention: "-" reads the spec
// from standard input.
func loadSpecArg(path string) (*tspec.Spec, error) {
	if path != "-" {
		return loadSpecFile(path)
	}
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, fmt.Errorf("reading spec from stdin: %w", err)
	}
	return parseSpecBytes(data)
}

func parseSpecBytes(data []byte) (*tspec.Spec, error) {
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		return tspec.LoadJSON(bytes.NewReader(trimmed))
	}
	s, err := tspec.Parse(string(data))
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// resolveSpec loads a spec from -spec FILE or a built-in -component NAME.
func resolveSpec(componentName, specPath string) (*tspec.Spec, error) {
	switch {
	case componentName != "" && specPath != "":
		return nil, usageError("-component and -spec are mutually exclusive")
	case componentName != "":
		t, err := core.LookupTarget(componentName)
		if err != nil {
			return nil, err
		}
		return t.New(nil).Spec(), nil
	case specPath != "":
		return loadSpecFile(specPath)
	default:
		return nil, usageError("need -component NAME or -spec FILE")
	}
}

func outWriter(path string, w io.Writer) (io.Writer, func() error, error) {
	if path == "" {
		return w, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("creating %s: %w", path, err)
	}
	return f, f.Close, nil
}

func cmdList(w io.Writer) error {
	reg, err := core.Registry()
	if err != nil {
		return err
	}
	for _, name := range reg.Names() {
		f, err := reg.Lookup(name)
		if err != nil {
			return err
		}
		g, err := f.Spec().TFM()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %d methods, model: %s\n", name, len(f.Spec().Methods), g.Stats())
	}
	return nil
}

func cmdValidate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError("validate takes one spec file")
	}
	s, err := loadSpecFile(fs.Arg(0))
	if err != nil {
		return err
	}
	g, err := s.TFM()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spec %q is valid: %d attributes, %d methods, model %s\n",
		s.Class.Name, len(s.Attributes), len(s.Methods), g.Stats())
	return nil
}

func cmdGraph(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	highlight := fs.String("highlight", "", "comma-separated node path to highlight")
	component := fs.String("component", "", "built-in component name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec *tspec.Spec
	var err error
	if fs.NArg() == 1 {
		spec, err = loadSpecFile(fs.Arg(0))
	} else {
		spec, err = resolveSpec(*component, "")
	}
	if err != nil {
		return err
	}
	g, err := spec.TFM()
	if err != nil {
		return err
	}
	var hl tfm.Transaction
	if *highlight != "" {
		for _, n := range strings.Split(*highlight, ",") {
			hl.Path = append(hl.Path, tfm.NodeID(strings.TrimSpace(n)))
		}
	}
	return g.WriteDOT(w, hl)
}

func cmdPaths(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paths", flag.ContinueOnError)
	k := fs.Int("k", 1, "loop bound")
	criterion := fs.String("criterion", "all-transactions", "coverage criterion")
	component := fs.String("component", "", "built-in component name")
	limit := fs.Int("limit", 0, "maximum transactions (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec *tspec.Spec
	var err error
	if fs.NArg() == 1 {
		spec, err = loadSpecFile(fs.Arg(0))
	} else {
		spec, err = resolveSpec(*component, "")
	}
	if err != nil {
		return err
	}
	g, err := spec.TFM()
	if err != nil {
		return err
	}
	crit, err := parseCriterion(*criterion)
	if err != nil {
		return err
	}
	ts, err := g.Select(crit, tfm.EnumOptions{LoopBound: *k, MaxTransactions: *limit})
	if err != nil && len(ts) == 0 {
		return err
	}
	for i, tr := range ts {
		fmt.Fprintf(w, "%4d  %s\n", i, tr)
	}
	fmt.Fprintf(w, "%d transactions (%s, loop bound %d)\n", len(ts), crit, *k)
	if err != nil {
		fmt.Fprintf(w, "warning: %v\n", err)
	}
	return nil
}

func parseCriterion(s string) (tfm.Criterion, error) {
	switch s {
	case "all-transactions":
		return tfm.CoverTransactions, nil
	case "all-links":
		return tfm.CoverLinks, nil
	case "all-nodes":
		return tfm.CoverNodes, nil
	default:
		return 0, fmt.Errorf("unknown criterion %q", s)
	}
}

type genFlags struct {
	seed   int64
	expand bool
	alt    int
	k      int
}

func addGenFlags(fs *flag.FlagSet) *genFlags {
	g := &genFlags{}
	fs.Int64Var(&g.seed, "seed", 42, "generation seed")
	fs.BoolVar(&g.expand, "expand", false, "expand node method alternatives")
	fs.IntVar(&g.alt, "alt", 4, "alternative expansion cap")
	fs.IntVar(&g.k, "k", 1, "transaction enumeration loop bound")
	return g
}

func (g *genFlags) options() driver.Options {
	return driver.Options{
		Seed:               g.seed,
		ExpandAlternatives: g.expand,
		MaxAlternatives:    g.alt,
		Enum:               tfm.EnumOptions{LoopBound: g.k},
	}
}

// sandboxFlags are the execution-hardening knobs shared by the suite-running
// subcommands (run, selftest, soak, mutate).
type sandboxFlags struct {
	isolate       bool
	pool          bool
	poolSize      int
	batch         int
	budget        int64
	maxTranscript int64
	timeout       time.Duration
}

func addSandboxFlags(fs *flag.FlagSet) *sandboxFlags {
	s := &sandboxFlags{}
	fs.BoolVar(&s.isolate, "isolate", false, "run every case in a crash-contained child process")
	fs.BoolVar(&s.pool, "pool", false, "crash-contained execution on a pool of warm worker processes (batched dispatch; implies isolation)")
	fs.IntVar(&s.poolSize, "pool-size", 0, "warm worker pool size for -pool (0 = parallelism)")
	fs.IntVar(&s.batch, "batch", 0, "cases dispatched per -pool worker round-trip (0 = default)")
	fs.Int64Var(&s.budget, "budget", 0, "per-case cooperative step budget (0 = unbounded)")
	fs.Int64Var(&s.maxTranscript, "max-transcript", 0, "per-case transcript cap in bytes (0 = unbounded)")
	fs.DurationVar(&s.timeout, "timeout", 0, "per-case wall-clock timeout, e.g. 2s (0 = none)")
	return s
}

// apply overlays the sandbox flags on a base set of execution options.
// -pool wins over -isolate: both contain crashes in child processes, the
// pool just amortizes the spawns.
func (s *sandboxFlags) apply(o testexec.Options) testexec.Options {
	if s.pool {
		o.Isolation = testexec.IsolatePool
		o.PoolSize = s.poolSize
		o.BatchSize = s.batch
	} else if s.isolate {
		o.Isolation = testexec.IsolateSubprocess
	}
	o.StepBudget = s.budget
	o.MaxTranscriptBytes = s.maxTranscript
	o.CaseTimeout = s.timeout
	return o
}

// obsFlags are the observability knobs shared by the suite-running
// subcommands: -trace streams NDJSON spans, -metrics writes an aggregated
// snapshot at exit. Both are side channels — reports and tables are
// byte-identical with or without them.
type obsFlags struct {
	tracePath   string
	metricsPath string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.tracePath, "trace", "", "write NDJSON trace spans to this file")
	fs.StringVar(&o.metricsPath, "metrics", "", "write an aggregated metrics snapshot (JSON) to this file")
	return o
}

// obsSession is the live tracer/metrics pair for one subcommand run.
type obsSession struct {
	Trace     *obs.Tracer
	Metrics   *obs.Metrics
	traceFile *os.File
	flags     *obsFlags
}

// session opens the trace sink and allocates the metrics aggregator per
// the flags. Both stay nil when their flag is unset — the nil values are
// the disabled implementations.
func (o *obsFlags) session() (*obsSession, error) {
	s := &obsSession{flags: o}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return nil, fmt.Errorf("creating trace file: %w", err)
		}
		s.traceFile = f
		s.Trace = obs.NewTracer(f)
	}
	if o.metricsPath != "" {
		s.Metrics = obs.NewMetrics()
	}
	return s, nil
}

// apply overlays the session on a base set of execution options.
func (s *obsSession) apply(o testexec.Options) testexec.Options {
	o.Trace = s.Trace
	o.Metrics = s.Metrics
	return o
}

// close flushes the metrics snapshot and closes the trace sink, surfacing
// the first deferred I/O error.
func (s *obsSession) close() error {
	var first error
	if err := s.Trace.Err(); err != nil {
		first = err
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("closing trace file: %w", err)
		}
	}
	if s.Metrics != nil {
		f, err := os.Create(s.flags.metricsPath)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("creating metrics file: %w", err)
			}
			return first
		}
		if err := s.Metrics.Snapshot().WriteJSON(f); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func cmdGen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	specPath := fs.String("spec", "", "t-spec file")
	out := fs.String("out", "", "output file (default stdout)")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := resolveSpec(*component, *specPath)
	if err != nil {
		return err
	}
	suite, err := driver.Generate(spec, gf.options())
	if err != nil {
		return err
	}
	dst, closeFn, err := outWriter(*out, w)
	if err != nil {
		return err
	}
	if err := suite.Save(dst); err != nil {
		_ = closeFn()
		return err
	}
	if err := closeFn(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s for %s (seed %d)\n", suite.Stats(), spec.Class.Name, gf.seed)
	return nil
}

func cmdRun(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	suitePath := fs.String("suite", "", "suite JSON file")
	logPath := fs.String("log", "", "write the Result.txt-style log to this file")
	sf := addSandboxFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *component == "" || *suitePath == "" {
		return usageError("run needs -component and -suite")
	}
	t, err := core.LookupTarget(*component)
	if err != nil {
		return err
	}
	f, err := os.Open(*suitePath)
	if err != nil {
		return fmt.Errorf("opening suite: %w", err)
	}
	defer f.Close()
	suite, err := driver.Load(f)
	if err != nil {
		return err
	}
	comp := t.New(nil)
	logDst, closeFn, err := outWriter(*logPath, io.Discard)
	if err != nil {
		return err
	}
	session, err := of.session()
	if err != nil {
		return err
	}
	rep, err := comp.RunSuite(suite, session.apply(sf.apply(testexec.Options{LogWriter: logDst})))
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	if cerr := session.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	printReport(w, rep)
	if !rep.AllPassed() {
		return fmt.Errorf("%d test cases did not pass", len(rep.Failures()))
	}
	return nil
}

func cmdSelfTest(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("selftest", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	cacheDir := fs.String("cache-dir", "", "content-addressed report store directory (unchanged runs are served from it)")
	coverPath := fs.String("cover", "", "write the canonical coverage artifact JSON to this file")
	gf := addGenFlags(fs)
	sf := addSandboxFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *component == "" {
		return usageError("selftest needs -component")
	}
	t, err := core.LookupTarget(*component)
	if err != nil {
		return err
	}
	comp := t.New(nil)
	st, err := openStore(*cacheDir)
	if err != nil {
		return err
	}
	session, err := of.session()
	if err != nil {
		return err
	}
	suite, err := comp.GenerateSuite(gf.options())
	if err != nil {
		_ = session.close()
		return fmt.Errorf("self-test of %q: %w", t.Name, err)
	}
	rep, cached, err := comp.RunSuiteCached(suite, session.apply(sf.apply(testexec.Options{})), st)
	if cerr := session.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("self-test of %q: %w", t.Name, err)
	}
	if cached {
		// Stderr, not w: cached and fresh runs print identical reports.
		fmt.Fprintf(os.Stderr, "cache: report served from %s\n", st.Dir())
	}
	fmt.Fprintf(w, "%s: %s\n", t.Name, suite.Stats())
	printReport(w, rep)
	if *coverPath != "" {
		g, err := comp.Spec().TFM()
		if err != nil {
			return err
		}
		art, err := cover.FromRun(g, suite, rep)
		if err != nil {
			return err
		}
		if err := writeArtifact(art, *coverPath, w); err != nil {
			return err
		}
	}
	if !rep.AllPassed() {
		return fmt.Errorf("%d test cases did not pass", len(rep.Failures()))
	}
	return nil
}

// loadComponentAndSuite resolves the shared -component/-suite flag pair.
func loadComponentAndSuite(componentName, suitePath string) (*core.Component, *driver.Suite, error) {
	if componentName == "" || suitePath == "" {
		return nil, nil, usageError("need -component and -suite")
	}
	t, err := core.LookupTarget(componentName)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(suitePath)
	if err != nil {
		return nil, nil, fmt.Errorf("opening suite: %w", err)
	}
	defer f.Close()
	suite, err := driver.Load(f)
	if err != nil {
		return nil, nil, err
	}
	return t.New(nil), suite, nil
}

// cmdRecord runs a suite against the current component build and stores the
// observable outputs as the golden reference — the producer-side half of
// the paper's regression-testing use of embedded suites (§2.4).
func cmdRecord(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	suitePath := fs.String("suite", "", "suite JSON file")
	goldenPath := fs.String("golden", "", "output file for the golden reference")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *goldenPath == "" {
		return usageError("record needs -golden FILE")
	}
	comp, suite, err := loadComponentAndSuite(*component, *suitePath)
	if err != nil {
		return err
	}
	rep, err := comp.RunSuite(suite, testexec.Options{})
	if err != nil {
		return err
	}
	for _, res := range rep.Results {
		if res.Outcome == testexec.OutcomeError {
			return fmt.Errorf("case %s has a harness error (%s); refusing to record a broken reference",
				res.CaseID, res.Detail)
		}
	}
	f, err := os.Create(*goldenPath)
	if err != nil {
		return err
	}
	golden := testexec.NewGolden(rep)
	if err := golden.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded golden reference for %s: %d cases -> %s\n",
		suite.Component, len(rep.Results), *goldenPath)
	return nil
}

// cmdRegress re-runs a suite and compares every case's observable output
// against the recorded reference — the consumer-side regression check after
// a new component release (the paper's CObList-maintenance scenario).
func cmdRegress(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("regress", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	suitePath := fs.String("suite", "", "suite JSON file")
	goldenPath := fs.String("golden", "", "golden reference file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *goldenPath == "" {
		return usageError("regress needs -golden FILE")
	}
	comp, suite, err := loadComponentAndSuite(*component, *suitePath)
	if err != nil {
		return err
	}
	gf, err := os.Open(*goldenPath)
	if err != nil {
		return fmt.Errorf("opening golden reference: %w", err)
	}
	golden, err := testexec.LoadGolden(gf)
	closeErr := gf.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	if golden.Component != suite.Component {
		return fmt.Errorf("golden reference is for %q, suite for %q", golden.Component, suite.Component)
	}
	rep, err := comp.RunSuite(suite, testexec.Options{Oracle: golden})
	if err != nil {
		return err
	}
	printReport(w, rep)
	if !rep.AllPassed() {
		return fmt.Errorf("regression detected: %d cases deviate from the recorded behaviour",
			len(rep.Failures()))
	}
	fmt.Fprintln(w, "no regressions: behaviour matches the recorded reference")
	return nil
}

func cmdSoak(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	cases := fs.Int("cases", 200, "number of random transactions")
	maxLen := fs.Int("maxlen", 0, "maximum walk length (0 = 4x node count)")
	seed := fs.Int64("seed", 42, "generation seed")
	walkBudget := fs.Int64("walk-budget", 0, "per-case generation step budget (0 = unbounded)")
	sf := addSandboxFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *component == "" {
		return usageError("soak needs -component")
	}
	t, err := core.LookupTarget(*component)
	if err != nil {
		return err
	}
	comp := t.New(nil)
	session, err := of.session()
	if err != nil {
		return err
	}
	suite, err := driver.GenerateSoak(comp.Spec(), driver.SoakOptions{
		Seed: *seed, Cases: *cases, MaxLength: *maxLen, StepBudget: *walkBudget,
		Trace: session.Trace, Metrics: session.Metrics,
	})
	if err != nil {
		_ = session.close()
		return err
	}
	fmt.Fprintf(w, "soak suite: %s\n", suite.Stats())
	rep, err := comp.RunSuite(suite, session.apply(sf.apply(testexec.Options{})))
	if cerr := session.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	printReport(w, rep)
	if !rep.AllPassed() {
		return fmt.Errorf("%d soak cases did not pass", len(rep.Failures()))
	}
	return nil
}

func cmdDerive(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("derive", flag.ContinueOnError)
	parent := fs.String("parent", "", "parent component name")
	child := fs.String("child", "", "child component name")
	out := fs.String("out", "", "write the derived suite JSON here")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *child == "" {
		return usageError("derive needs -parent and -child")
	}
	pt, err := core.LookupTarget(*parent)
	if err != nil {
		return err
	}
	ct, err := core.LookupTarget(*child)
	if err != nil {
		return err
	}
	pc, cc := pt.New(nil), ct.New(nil)
	parentSuite, err := pc.GenerateSuite(gf.options())
	if err != nil {
		return err
	}
	d, err := core.DeriveSubclass(pc, cc, parentSuite, gf.options())
	if err != nil {
		return err
	}
	skip, reuse, regen := d.Plan.Counts()
	fmt.Fprintf(w, "derived suite for %s (parent %s):\n", *child, *parent)
	fmt.Fprintf(w, "  transactions: %d skipped, %d reused, %d regenerated\n", skip, reuse, regen)
	fmt.Fprintf(w, "  test cases:   %d new, %d reused from parent, %d parent cases skipped\n",
		d.NumNew, d.NumReused, d.NumSkipped)
	inh, red, nw := d.Plan.Delta.Split(cc.Spec())
	fmt.Fprintf(w, "  methods:      %d inherited, %d redefined, %d new\n", len(inh), len(red), len(nw))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := d.Suite.Save(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// writeArtifact encodes a coverage artifact canonically and writes it to
// path, echoing the one-line summary to w.
func writeArtifact(art *cover.Artifact, path string, w io.Writer) error {
	enc, err := art.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return fmt.Errorf("writing coverage artifact: %w", err)
	}
	fmt.Fprintf(w, "%s -> %s\n", art.Suite.Summary(), path)
	return nil
}

// componentGraph rebuilds the component's transaction flow model from its
// embedded t-spec — the graph coverage artifacts are keyed to.
func componentGraph(name string) (*tfm.Graph, error) {
	t, err := core.LookupTarget(name)
	if err != nil {
		return nil, err
	}
	return t.New(nil).Spec().TFM()
}

// openStore opens the content-addressed verdict store at dir; an empty dir
// is the disabled (nil) store.
func openStore(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return store.Open(dir)
}

func cmdMutate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	methods := fs.String("methods", "", "comma-separated methods to mutate (default: the component's experiment methods)")
	verbose := fs.Bool("v", false, "print per-mutant verdicts")
	cacheDir := fs.String("cache-dir", "", "content-addressed verdict store directory (warm re-runs skip unchanged mutants)")
	coverPath := fs.String("cover", "", "write the canonical coverage artifact JSON (kill matrix included) to this file")
	parallel := fs.Int("parallel", 0, "mutant workers (0 or 1 = serial; results are identical either way)")
	gf := addGenFlags(fs)
	sf := addSandboxFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *component == "" {
		return usageError("mutate needs -component")
	}
	t, err := core.LookupTarget(*component)
	if err != nil {
		return err
	}
	comp := t.New(nil)
	suite, err := comp.GenerateSuite(gf.options())
	if err != nil {
		return err
	}
	var methodList []string
	if *methods != "" {
		for _, m := range strings.Split(*methods, ",") {
			methodList = append(methodList, strings.TrimSpace(m))
		}
	}
	var progress io.Writer
	if *verbose {
		progress = w
	}
	st, err := openStore(*cacheDir)
	if err != nil {
		return err
	}
	session, err := of.session()
	if err != nil {
		return err
	}
	res, err := core.MutationRunOpts(*component, suite, methodList, progress,
		core.MutationOptions{
			Exec:        session.apply(sf.apply(testexec.Options{})),
			Store:       st,
			Parallelism: *parallel,
		})
	if cerr := session.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if st != nil {
		// Stderr, not w: the rendered table must stay byte-identical with
		// and without a cache.
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%s)\n",
			res.CacheHits, res.CacheMisses, st.Dir())
	}
	table := res.Tabulate()
	if err := table.Render(w); err != nil {
		return err
	}
	if *coverPath != "" {
		g, err := comp.Spec().TFM()
		if err != nil {
			return err
		}
		art, err := cover.FromCampaign(g, suite, res)
		if err != nil {
			return err
		}
		if err := writeArtifact(art, *coverPath, w); err != nil {
			return err
		}
	}
	return checkSurvivors(table)
}

func cmdEmit(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("emit", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	specPath := fs.String("spec", "", "t-spec file")
	importPath := fs.String("import", "", "import path of the factory package")
	factory := fs.String("factory", "", "factory construction expression")
	out := fs.String("out", "", "output file (default stdout)")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := resolveSpec(*component, *specPath)
	if err != nil {
		return err
	}
	suite, err := driver.Generate(spec, gf.options())
	if err != nil {
		return err
	}
	dst, closeFn, err := outWriter(*out, w)
	if err != nil {
		return err
	}
	err = driver.Emit(dst, suite, driver.EmitOptions{
		ComponentImport: *importPath,
		FactoryExpr:     *factory,
	})
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

// cmdTraceValidate checks an emitted NDJSON trace against the span
// schema: every line a valid span, IDs unique, parent references
// resolvable, kinds known. CI runs it on hostile-suite traces to catch
// schema drift.
func cmdTraceValidate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace-validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return usageError("trace-validate takes one NDJSON trace file, or - (or no argument) for stdin")
	}
	var r io.Reader = os.Stdin
	name := "stdin"
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("opening trace: %w", err)
		}
		defer f.Close()
		r = f
		name = fs.Arg(0)
	}
	n, err := obs.ValidateNDJSON(r)
	if err != nil {
		return fmt.Errorf("trace %s: %w", name, err)
	}
	fmt.Fprintf(w, "trace %s: %d spans, schema-valid\n", name, n)
	return nil
}

// cmdCover renders a stored coverage artifact — written by `selftest
// -cover`, `mutate -cover`, or fetched from the service's /coverage
// endpoint — as text tables, or with -dot as a heatmap overlay on the
// component's transaction flow model. It re-runs nothing: everything comes
// from the artifact, with only the graph rebuilt from the built-in
// component's embedded t-spec.
func cmdCover(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cover", flag.ContinueOnError)
	artifact := fs.String("artifact", "", "coverage artifact JSON file")
	dot := fs.Bool("dot", false, "emit a Graphviz DOT heatmap of the TFM instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *artifact
	if path == "" && fs.NArg() == 1 {
		path = fs.Arg(0)
	}
	if path == "" {
		return usageError("cover needs -artifact FILE or - (or a positional artifact path)")
	}
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("opening artifact: %w", err)
		}
		defer f.Close()
		r = f
	}
	art, err := cover.Load(r)
	if err != nil {
		return err
	}
	if *dot {
		g, err := componentGraph(art.Component)
		if err != nil {
			return fmt.Errorf("rebuilding the TFM for %q: %w", art.Component, err)
		}
		return art.WriteHeatmap(w, g)
	}
	return art.Render(w)
}

// cmdImpact is the test-impact analysis engine's CLI: diff two revisions of
// a component's t-spec, execute only the cases the edit invalidates, and
// replay everything else byte-identically from the verdict store. The final
// report (and -cover artifact) are identical to a cold full run on the new
// spec; the impact artifact records what was kept, re-run or regenerated
// and why.
func cmdImpact(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("impact", flag.ContinueOnError)
	oldPath := fs.String("old", "", "old t-spec revision (text or JSON; - for stdin)")
	newPath := fs.String("new", "", "new t-spec revision (text or JSON; - for stdin)")
	component := fs.String("component", "", "built-in component to execute against (default: the new spec's class)")
	cacheDir := fs.String("cache-dir", "", "content-addressed verdict store backing warm replay")
	parallel := fs.Int("parallel", 0, "concurrent case executions (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "print the canonical impact artifact instead of the table")
	artifactPath := fs.String("artifact", "", "write the impact artifact JSON to this file")
	coverPath := fs.String("cover", "", "write the final run's coverage artifact JSON to this file")
	reportPath := fs.String("report", "", "write the final suite report text to this file")
	gf := addGenFlags(fs)
	sf := addSandboxFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		return usageError("impact needs -old FILE and -new FILE")
	}
	if *oldPath == "-" && *newPath == "-" {
		return usageError("only one of -old/-new may read from stdin")
	}
	oldSpec, err := loadSpecArg(*oldPath)
	if err != nil {
		return fmt.Errorf("old spec: %w", err)
	}
	newSpec, err := loadSpecArg(*newPath)
	if err != nil {
		return fmt.Errorf("new spec: %w", err)
	}
	name := *component
	if name == "" {
		name = newSpec.Class.Name
	}
	t, err := core.LookupTarget(name)
	if err != nil {
		return err
	}
	st, err := openStore(*cacheDir)
	if err != nil {
		return err
	}
	session, err := of.session()
	if err != nil {
		return err
	}
	comp := t.New(nil)
	r := &impact.Runner{
		Factory:       comp.Factory,
		Providers:     comp.Providers,
		Gen:           gf.options(),
		Exec:          session.apply(sf.apply(testexec.Options{})),
		Store:         st,
		Parallelism:   *parallel,
		MutantMethods: t.MutantMethods(),
	}
	res, err := r.Run(oldSpec, newSpec)
	if cerr := session.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("impact analysis of %q: %w", name, err)
	}
	if *jsonOut {
		raw, err := res.Report.Encode()
		if err != nil {
			return err
		}
		if _, err := w.Write(raw); err != nil {
			return err
		}
	} else {
		if err := res.Report.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s\n", name, res.Suite.Stats())
		printReport(w, res.Final)
	}
	if *artifactPath != "" {
		raw, err := res.Report.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*artifactPath, raw, 0o644); err != nil {
			return fmt.Errorf("writing impact artifact: %w", err)
		}
	}
	if *coverPath != "" {
		dst := w
		if *jsonOut {
			dst = io.Discard
		}
		if err := writeArtifact(res.Coverage, *coverPath, dst); err != nil {
			return err
		}
	}
	if *reportPath != "" {
		var buf bytes.Buffer
		printReport(&buf, res.Final)
		if err := os.WriteFile(*reportPath, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("writing final report: %w", err)
		}
	}
	if !res.Final.AllPassed() {
		return fmt.Errorf("impact re-run: %d %w", len(res.Final.Failures()), errCasesFailed)
	}
	return nil
}

// cmdSpec exports a t-spec — a built-in component's embedded one, or a
// textual spec file — as the canonical JSON wire form that impact, gen,
// validate and the service accept.
func cmdSpec(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	component := fs.String("component", "", "built-in component name")
	specPath := fs.String("spec", "", "t-spec file to convert")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := resolveSpec(*component, *specPath)
	if err != nil {
		return err
	}
	dst, closeFn, err := outWriter(*out, w)
	if err != nil {
		return err
	}
	err = spec.SaveJSON(dst)
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

// cmdServe runs the campaign service: an HTTP/JSON API over a bounded job
// queue and worker pool, sharing one verdict store across all submissions.
// With -journal DIR submissions are write-ahead journaled and replayed on
// restart. It serves until killed; SIGTERM or SIGINT triggers a graceful
// drain (admission closed with 503 + Retry-After, in-flight jobs finished
// within -drain-timeout, journal checkpointed) before exit.
func cmdServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8437", "listen address (host:port)")
	cacheDir := fs.String("cache-dir", "", "content-addressed verdict store shared by all campaigns")
	journalDir := fs.String("journal", "", "write-ahead job journal directory (campaigns survive restarts)")
	workers := fs.Int("workers", 1, "campaigns running concurrently")
	queue := fs.Int("queue", 16, "pending-campaign queue depth (full queue returns 503)")
	parallelism := fs.Int("parallelism", 0, "per-campaign mutant workers (0 = GOMAXPROCS)")
	maxRetries := fs.Int("max-retries", 2, "retries per crashed or wedged campaign before quarantine")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline for in-flight campaigns")
	shardLease := fs.Duration("shard-lease", serve.DefaultShardLease, "per-shard worker lease for distributed campaigns")
	quiet := fs.Bool("quiet", false, "suppress per-job log lines on stderr")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceBuf := fs.Int("trace-buf", 0, "per-campaign retained trace bytes (0 = 16 MiB default, negative = unbounded)")
	accessLog := fs.String("access-log", "", "NDJSON access-log file (\"-\" = stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := openStore(*cacheDir)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Store:       st,
		Workers:     *workers,
		QueueDepth:  *queue,
		Parallelism: *parallelism,
		Retry:       sandbox.RetryPolicy{Attempts: *maxRetries + 1},
		ShardLease:  *shardLease,
		TraceBuffer: *traceBuf,
		EnablePprof: *pprofFlag,
	}
	if *journalDir != "" {
		jn, err := serve.OpenJournal(*journalDir)
		if err != nil {
			return err
		}
		cfg.Journal = jn
		if cp, ok := jn.LastCheckpoint(); ok && !cp.Clean {
			fmt.Fprintf(os.Stderr, "concat serve: previous shutdown was unclean (%d active job(s)); replaying from journal\n", cp.Active)
		}
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening access log: %w", err)
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	// NewStarting brings the listener up immediately: /healthz and /readyz
	// answer during a long journal replay, with /readyz 503 until it ends.
	srv := serve.NewStarting(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		signal.Stop(sigs)
		fmt.Fprintf(os.Stderr, "concat serve: %s received, draining (timeout %s)\n", sig, *drainTimeout)
		srv.Drain(*drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	fmt.Fprintf(w, "concat campaign service listening on http://%s\n", ln.Addr())
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	return nil
}

// serviceURL normalizes the -addr flag of the client subcommands into a
// base URL.
func serviceURL(addr string) string {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// readAPIError extracts the {"error": ...} payload of a failed service
// response.
func readAPIError(resp *http.Response) error {
	var apiErr struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
		return fmt.Errorf("service: %s (HTTP %d)", apiErr.Error, resp.StatusCode)
	}
	return fmt.Errorf("service: HTTP %d", resp.StatusCode)
}

// cmdSubmit posts one campaign to a running service. With -wait it blocks
// for the finished report, prints it, and applies the same exit-code
// contract as `concat mutate` (exit 2 on surviving mutants).
func cmdSubmit(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8437", "service address (host:port or URL)")
	component := fs.String("component", "", "built-in component name")
	methods := fs.String("methods", "", "comma-separated methods to mutate")
	isolate := fs.Bool("isolate", false, "run every case in a crash-contained child process")
	poolFlag := fs.Bool("pool", false, "run the campaign on the service's warm worker pool (batched crash-contained dispatch)")
	poolSize := fs.Int("pool-size", 0, "warm worker pool size for -pool (0 = service parallelism)")
	distributed := fs.Bool("distributed", false, "fan the campaign out to remote `concat work` processes")
	shards := fs.Int("shards", 0, "shard count for -distributed (0 = service default)")
	wait := fs.Bool("wait", false, "block until the campaign finishes and print its report")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *component == "" {
		return usageError("submit needs -component")
	}
	req := serve.Request{
		Component:   *component,
		Seed:        gf.seed,
		Expand:      gf.expand,
		Alt:         gf.alt,
		LoopBound:   gf.k,
		Isolate:     *isolate,
		Pool:        *poolFlag,
		PoolSize:    *poolSize,
		Distributed: *distributed,
		Shards:      *shards,
	}
	if *methods != "" {
		for _, m := range strings.Split(*methods, ",") {
			req.Methods = append(req.Methods, strings.TrimSpace(m))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	base := serviceURL(*addr)
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submitting to %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return readAPIError(resp)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding submission response: %w", err)
	}
	fmt.Fprintf(w, "submitted %s (%s) -> %s/campaigns/%s\n", st.ID, st.Component, base, st.ID)
	if !*wait {
		return nil
	}
	// The report endpoint blocks until the job reaches a terminal state.
	repResp, err := http.Get(base + "/campaigns/" + st.ID + "/report")
	if err != nil {
		return fmt.Errorf("fetching report: %w", err)
	}
	defer repResp.Body.Close()
	if repResp.StatusCode != http.StatusOK {
		return readAPIError(repResp)
	}
	if _, err := io.Copy(w, repResp.Body); err != nil {
		return fmt.Errorf("reading report: %w", err)
	}
	final, err := fetchStatus(base, st.ID)
	if err != nil {
		return err
	}
	if final.Survivors > 0 {
		return fmt.Errorf("%d non-equivalent %w the test set", final.Survivors, errSurvivors)
	}
	return nil
}

func fetchStatus(base, id string) (serve.Status, error) {
	resp, err := http.Get(base + "/campaigns/" + id)
	if err != nil {
		return serve.Status{}, fmt.Errorf("fetching status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Status{}, readAPIError(resp)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.Status{}, fmt.Errorf("decoding status: %w", err)
	}
	return st, nil
}

// cmdStatus prints campaign statuses from a running service — all jobs in
// submission order, or one job with -id.
func cmdStatus(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8437", "service address (host:port or URL)")
	id := fs.String("id", "", "campaign ID (default: list all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := serviceURL(*addr) + "/campaigns"
	if *id != "" {
		url += "/" + *id
	}
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("querying %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readAPIError(resp)
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	return nil
}

// cmdLoadgen drives a running service with sustained concurrent load and
// prints the measurement: throughput, per-endpoint latency quantiles, the
// backpressure contract under saturation, and a series-by-series
// reconciliation of the service's /metrics request counters against the
// client's own counts. A cross-check failure or a 503 without Retry-After
// is an error exit, not just a report line.
func cmdLoadgen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8437", "service address (host:port or URL)")
	requests := fs.Int("requests", 100, "campaign submissions to complete")
	submitters := fs.Int("submitters", 4, "concurrent submission workers")
	subscribers := fs.Int("subscribers", 2, "concurrent /events stream consumers")
	component := fs.String("component", "Account", "component each campaign mutates")
	seed := fs.Int64("seed", 42, "campaign generation seed (fixed = warm store replays)")
	jsonOut := fs.String("json", "", "write the measurement as indented JSON to FILE (- = stdout)")
	quiet := fs.Bool("quiet", false, "suppress progress lines on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := loadgen.Config{
		BaseURL:     serviceURL(*addr),
		Requests:    *requests,
		Submitters:  *submitters,
		Subscribers: *subscribers,
		Component:   *component,
		Seed:        *seed,
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "loadgen: %d campaigns (%d failed) in %.2fs — %.1f campaigns/s, %.1f requests/s over %d HTTP requests\n",
		res.CampaignsCompleted, res.CampaignsFailed, res.WallSeconds,
		res.CampaignsPerSecond, res.RequestsPerSecond, res.HTTPRequests)
	eps := make([]string, 0, len(res.Endpoints))
	for ep := range res.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		st := res.Endpoints[ep]
		fmt.Fprintf(w, "  %-28s %6d reqs  p50 %s  p95 %s  p99 %s\n", ep, st.Requests,
			time.Duration(st.P50US)*time.Microsecond,
			time.Duration(st.P95US)*time.Microsecond,
			time.Duration(st.P99US)*time.Microsecond)
	}
	fmt.Fprintf(w, "  backpressure: %d submissions rejected 503 (%d without Retry-After)\n",
		res.Backpressure.Rejected503, res.Backpressure.MissingRetryAfter)
	fmt.Fprintf(w, "  cross-check: %d series, agree=%v\n", res.CrossCheck.Series, res.CrossCheck.Agree)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			_, err = w.Write(data)
		} else {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if !res.CrossCheck.Agree {
		return fmt.Errorf("loadgen: server/client counter mismatch:\n  %s",
			strings.Join(res.CrossCheck.Mismatches, "\n  "))
	}
	if res.Backpressure.MissingRetryAfter > 0 {
		return fmt.Errorf("loadgen: %d 503 responses lacked Retry-After", res.Backpressure.MissingRetryAfter)
	}
	if res.CampaignsFailed > 0 {
		return fmt.Errorf("loadgen: %d campaigns did not complete", res.CampaignsFailed)
	}
	return nil
}

// cmdWork runs a remote campaign worker: it polls the coordinator for
// shard leases, executes each shard with the same machinery the service's
// local path uses, and publishes every verdict into the shared store —
// by default the coordinator's own /store mount, or with -store-dir a
// filesystem store on a shared volume. SIGTERM or SIGINT stops the
// polling loop; -idle-exit lets CI workers drain and exit on their own.
func cmdWork(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "127.0.0.1:8437", "coordinator address (host:port or URL)")
	storeDir := fs.String("store-dir", "", "shared filesystem verdict store (default: the coordinator's /store mount)")
	parallelism := fs.Int("parallelism", 0, "per-shard mutant workers (0 = GOMAXPROCS)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle delay between lease polls")
	idleExit := fs.Duration("idle-exit", 0, "exit after this long without work (0 = run until killed)")
	quiet := fs.Bool("quiet", false, "suppress per-shard log lines on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := serviceURL(*coordinator)
	var backend store.Backend
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		backend = st
	} else {
		backend = store.NewRemote(base, nil)
	}
	cfg := serve.WorkerConfig{
		Coordinator: base,
		Store:       backend,
		Parallelism: *parallelism,
		Poll:        *poll,
		IdleExit:    *idleExit,
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "concat work: %s received, stopping\n", sig)
		cancel()
	}()
	fmt.Fprintf(w, "concat worker polling %s\n", base)
	n := serve.NewWorker(cfg).Run(ctx)
	fmt.Fprintf(w, "concat work: %d shard(s) completed\n", n)
	return nil
}

func printReport(w io.Writer, rep *testexec.Report) {
	fmt.Fprintln(w, rep.Summary())
	for _, f := range rep.Failures() {
		fmt.Fprintf(w, "  FAIL %s (%s): %s — %s\n", f.CaseID, f.Transaction, f.Outcome, f.Detail)
	}
}
