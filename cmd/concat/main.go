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
//	concat impact    -old FILE -new FILE [-component NAME] [-cache-dir DIR] [-parallel N] [-json] [-artifact FILE] [-cover FILE] [-report FILE] [sandbox flags]
//	concat serve     [-addr HOST:PORT] [-cache-dir DIR] [-journal DIR] [-workers N] [-queue N] [-parallel N] [-max-retries N] [-drain-timeout D] [-shard-lease D] [-pprof] [-trace-buf N]
//	concat submit    [-addr URL] -component NAME [-seed N] [-isolate | -pool [-pool-size N]] [-distributed [-shards N]] [-wait]
//	concat status    [-addr URL] [-id ID]
//	concat work      [-coordinator URL] [-store-dir DIR] [-parallel N] [-poll D] [-idle-exit D]
//
// Every command that fans work out takes its worker count as -parallel N
// (0 = GOMAXPROCS, 1 = serial); results are identical at any setting.
// `concat help` describes the flags the subcommands share: the sandbox and
// observability flags of the suite-running commands, the -cache-dir verdict
// store, and -cover coverage artifacts. selftest and impact record one
// store entry per case, so a store primed by `selftest -cache-dir` replays
// an impact diff of the same spec warm.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"concat/internal/core"
	"concat/internal/driver"
	"concat/internal/obs"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
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

// command is one subcommand: its name, its one-line summary in `concat
// help` (empty hides it), and its handler, which declares its flags on fs
// (named after the command) and parses args, the words after the name.
type command struct {
	name    string
	summary string
	run     func(fs *flag.FlagSet, args []string, w io.Writer) error
}

// commands is the subcommand table: run dispatches on it and help lists it
// in this order.
func commands() []command {
	return []command{
		{"list", "list the built-in self-testable components", cmdList},
		{"validate", "parse and validate a t-spec file", cmdValidate},
		{"graph", "render a t-spec's transaction flow model as Graphviz DOT", cmdGraph},
		{"paths", "enumerate the transactions of a t-spec's model", cmdPaths},
		{"gen", "generate an executable test suite from a t-spec", cmdGen},
		{"run", "execute a saved suite against a built-in component", cmdRun},
		{"selftest", "generate and execute in one step", cmdSelfTest},
		{"soak", "random-walk (endurance) testing: sample and run random transactions", cmdSoak},
		{"record", "run a suite and record its outputs as the golden reference", cmdRecord},
		{"regress", "re-run a suite against a recorded golden reference (§2.4 regression testing)", cmdRegress},
		{"derive", "derive a subclass suite with hierarchical incremental reuse", cmdDerive},
		{"mutate", "evaluate a test set by interface mutation (Table 1 operators)", cmdMutate},
		{"emit", "emit a standalone Go driver source for a suite", cmdEmit},
		{"trace-validate", "check an NDJSON trace file (or - for stdin) against the span schema", cmdTraceValidate},
		{"cover", "render a stored coverage artifact (or - for stdin) as tables or a DOT heatmap", cmdCover},
		{"impact", "diff two t-spec revisions and re-run only the invalidated cases", cmdImpact},
		{"spec", "export a t-spec (built-in or file) as canonical JSON", cmdSpec},
		{"serve", "run the campaign service: an HTTP/JSON API over a job queue", cmdServe},
		{"submit", "submit a campaign to a running service (add -wait for the report)", cmdSubmit},
		{"status", "query a running service for campaign statuses", cmdStatus},
		{"loadgen", "drive a running service with concurrent load and measure it", cmdLoadgen},
		{"work", "run a remote campaign worker: lease shards from a coordinator", cmdWork},
		// The case server behind -isolate and -pool: reads batch frames on
		// stdin, writes result frames on stdout until stdin closes.
		{"run-case", "", func(_ *flag.FlagSet, _ []string, w io.Writer) error {
			return testexec.ServeCaseBatches(os.Stdin, w, core.CaseResolver())
		}},
		{"help", "", cmdHelp},
		{"-h", "", cmdHelp},
		{"--help", "", cmdHelp},
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usageError("missing subcommand")
	}
	for _, c := range commands() {
		if c.name == args[0] {
			return c.run(flag.NewFlagSet(c.name, flag.ContinueOnError), args[1:], w)
		}
	}
	return usageError("unknown subcommand " + args[0])
}

func usageError(msg string) error {
	return fmt.Errorf("%s (run 'concat help')", msg)
}

func cmdHelp(_ *flag.FlagSet, _ []string, w io.Writer) error {
	fmt.Fprint(w, "concat — construction and use of self-testable components\n\nsubcommands:\n")
	for _, c := range commands() {
		if c.summary != "" {
			// Summaries start at column 13; a longer name keeps a two-space gap.
			fmt.Fprintf(w, "  %s%s%s\n", c.name, strings.Repeat(" ", max(2, 11-len(c.name))), c.summary)
		}
	}
	fmt.Fprintln(w, `
run, selftest, soak, mutate and impact accept the sandbox flags: -isolate
spawns one crash-contained child per case; -pool dispatches batches of
cases (-batch N) to a pool of warm workers (-pool-size N) for the same
containment at a fraction of the spawn cost. Both modes produce reports
byte-identical to in-process execution.

run, selftest, soak, mutate and impact accept -trace FILE (stream NDJSON
spans) and -metrics FILE (write an aggregated JSON snapshot at exit); both
are side channels that never change reports or tables.

selftest, mutate, impact and serve accept -cache-dir DIR, a content-addressed
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
measurement. The maintained service benchmark is concatbench's
service-open workload.

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
	return nil
}

// The flag groups below are the only declarations of the flags they hold;
// a subcommand composes the groups it takes.

// targetFlag is -component: a built-in component, by name.
type targetFlag struct {
	cmd  string
	name string
}

// addTargetFlag declares -component; an empty usage is the plain
// "built-in component name".
func addTargetFlag(fs *flag.FlagSet, usage string) *targetFlag {
	if usage == "" {
		usage = "built-in component name"
	}
	t := &targetFlag{cmd: fs.Name()}
	fs.StringVar(&t.name, "component", "", usage)
	return t
}

// need returns the component name, or the "<cmd> needs -component" usage
// error when the flag is unset.
func (t *targetFlag) need() (string, error) {
	if t.name == "" {
		return "", usageError(t.cmd + " needs -component")
	}
	return t.name, nil
}

// target resolves the required component.
func (t *targetFlag) target() (core.Target, error) {
	name, err := t.need()
	if err != nil {
		return core.Target{}, err
	}
	return core.LookupTarget(name)
}

// suiteFlags are -component and -suite: a saved suite and the built-in
// component it runs against.
type suiteFlags struct {
	target *targetFlag
	path   string
}

func addSuiteFlags(fs *flag.FlagSet) *suiteFlags {
	s := &suiteFlags{target: addTargetFlag(fs, "")}
	fs.StringVar(&s.path, "suite", "", "suite JSON file")
	return s
}

// load resolves the component and reads the suite; both flags are required.
func (s *suiteFlags) load() (*core.Component, *driver.Suite, error) {
	if s.target.name == "" || s.path == "" {
		return nil, nil, usageError(s.target.cmd + " needs -component and -suite")
	}
	t, err := core.LookupTarget(s.target.name)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(s.path)
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

// cacheFlag is -cache-dir: the content-addressed verdict store.
type cacheFlag string

func addCacheFlag(fs *flag.FlagSet, usage string) *cacheFlag {
	c := new(cacheFlag)
	fs.StringVar((*string)(c), "cache-dir", "", usage)
	return c
}

// open opens the store; an unset flag is the disabled (nil) store.
func (c *cacheFlag) open() (*store.Store, error) {
	if *c == "" {
		return nil, nil
	}
	return store.Open(string(*c))
}

// addrFlag is -addr: the campaign service's address.
type addrFlag string

// addAddrFlag declares -addr; an empty usage is the client's "service
// address (host:port or URL)".
func addAddrFlag(fs *flag.FlagSet, usage string) *addrFlag {
	if usage == "" {
		usage = "service address (host:port or URL)"
	}
	a := new(addrFlag)
	fs.StringVar((*string)(a), "addr", "127.0.0.1:8437", usage)
	return a
}

// url is the service's base URL.
func (a *addrFlag) url() string { return serviceURL(string(*a)) }

// addParallelFlag declares -parallel, the worker count of every command
// that fans work out; what names the work.
func addParallelFlag(fs *flag.FlagSet, what string) *int {
	return fs.Int("parallel", 0, what+" (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
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

// isolationFlags select the crash-containment mode: the suite-running
// subcommands apply them locally, submit ships them to the service.
type isolationFlags struct {
	isolate  bool
	pool     bool
	poolSize int
}

func addIsolationFlags(fs *flag.FlagSet) *isolationFlags {
	i := &isolationFlags{}
	fs.BoolVar(&i.isolate, "isolate", false, "run every case in a crash-contained child process")
	fs.BoolVar(&i.pool, "pool", false, "crash-contained execution on a pool of warm worker processes (batched dispatch; implies isolation)")
	fs.IntVar(&i.poolSize, "pool-size", 0, "warm worker pool size for -pool (0 = parallelism)")
	return i
}

// execFlags are the knobs of the suite-running subcommands (run, selftest,
// soak, mutate, impact): the isolation mode and per-case sandbox limits,
// and the side channels -trace (NDJSON spans) and -metrics (an aggregated
// snapshot written at exit). Reports and tables are byte-identical with or
// without the side channels.
type execFlags struct {
	*isolationFlags
	batch         int
	budget        int64
	maxTranscript int64
	timeout       time.Duration
	tracePath     string
	metricsPath   string
}

func addExecFlags(fs *flag.FlagSet) *execFlags {
	e := &execFlags{isolationFlags: addIsolationFlags(fs)}
	fs.IntVar(&e.batch, "batch", 0, "cases dispatched per -pool worker round-trip (0 = default)")
	fs.Int64Var(&e.budget, "budget", 0, "per-case cooperative step budget (0 = unbounded)")
	fs.Int64Var(&e.maxTranscript, "max-transcript", 0, "per-case transcript cap in bytes (0 = unbounded)")
	fs.DurationVar(&e.timeout, "timeout", 0, "per-case wall-clock timeout, e.g. 2s (0 = none)")
	fs.StringVar(&e.tracePath, "trace", "", "write NDJSON trace spans to this file")
	fs.StringVar(&e.metricsPath, "metrics", "", "write an aggregated metrics snapshot (JSON) to this file")
	return e
}

// execSession is one subcommand run's execution options with the live
// trace sink and metrics aggregator.
type execSession struct {
	opts        testexec.Options
	traceFile   *os.File
	metricsPath string
}

// start builds the execution options and opens the side channels. -pool
// wins over -isolate: both contain crashes in child processes, the pool
// just amortizes the spawns. An unset side channel stays nil, the
// disabled implementation.
func (e *execFlags) start() (*execSession, error) {
	s := &execSession{metricsPath: e.metricsPath}
	o := &s.opts
	if e.pool {
		o.Isolation = testexec.IsolatePool
		o.PoolSize = e.poolSize
		o.BatchSize = e.batch
	} else if e.isolate {
		o.Isolation = testexec.IsolateSubprocess
	}
	o.StepBudget = e.budget
	o.MaxTranscriptBytes = e.maxTranscript
	o.CaseTimeout = e.timeout
	if e.tracePath != "" {
		f, err := os.Create(e.tracePath)
		if err != nil {
			return nil, fmt.Errorf("creating trace file: %w", err)
		}
		s.traceFile = f
		o.Trace = obs.NewTracer(f)
	}
	if e.metricsPath != "" {
		o.Metrics = obs.NewMetrics()
	}
	return s, nil
}

// close writes the metrics snapshot and closes the trace sink. It returns
// err when that is set, else the first deferred I/O error.
func (s *execSession) close(err error) error {
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	keep(s.opts.Trace.Err())
	if s.traceFile != nil {
		if cerr := s.traceFile.Close(); cerr != nil {
			keep(fmt.Errorf("closing trace file: %w", cerr))
		}
	}
	if s.opts.Metrics != nil {
		keep(writeOut(s.metricsPath, nil, s.opts.Metrics.Snapshot().WriteJSON))
	}
	return err
}
