// Command concatbench is Concat's benchmark: one process that runs a named
// workload against the system's public Go interfaces for a fixed window,
// checks every verdict it produces, and prints its metrics by name with
// their units. See README.md for the workloads, the metric-to-layer map and
// how to read the trace.
//
//	concatbench --workload table2-inproc --seed 42 --seconds 30 --trace 0
//	concatbench --smoke
//
// The last line of standard output is the result object:
//
//	{"correct": true, "attempted": 22, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Scratch state lives under .bench_build/ in the working
// directory and is removed at exit; traced runs leave their spans in
// .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"concat/internal/core"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"table2-inproc": runTable2,
	"impact-edit":   runImpact,
	"service-open":  runService,
}

// workloadOrder is the order the smoke mode runs them in.
var workloadOrder = []string{"table2-inproc", "impact-edit", "service-open"}

// setupReps is how many times a run repeats its set-up; setup_s reports the
// median plus the one warm-up op.
const setupReps = 3

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	smoke    bool
	dir      string // private scratch directory, removed at exit
	tr       *tracer
}

// outcome is what a workload hands back: its counts, gate failures and
// metric values (end-to-end when untraced, per-layer when traced), plus
// workload-specific fields for the machine record.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	record            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, record: map[string]any{}}
}

// verify records one checked verdict; a mismatch counts as failed.
func (o *outcome) verify(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problem(format, args...)
	}
}

// problem records a gate failure that is not tied to one verdict.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// Pool and subprocess isolation re-execute this binary as the case
	// server; in that role it serves and exits here.
	core.MaybeServeCase()
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: table2-inproc, impact-edit, service-open")
	seed := flag.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	smoke := flag.Bool("smoke", false, "run every workload once at minimum size and check gates and metric names")
	flag.Parse()
	if *smoke {
		return runSmoke()
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "concatbench: unknown workload %q\n", *workload)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "concatbench: --trace must be 0 or 1")
		return 2
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
	}
	res, err := runOne(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "concatbench: %s: %v\n", e.workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "concatbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in a fresh scratch directory, prints the
// machine record line and returns the result object.
func runOne(e *env) (*result, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, e.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	runID := fmt.Sprintf("%s-seed%d-trace%d-%d", e.workload, e.seed, boolInt(e.traced), os.Getpid())
	if e.traced {
		e.tr = newTracer(runID)
	}
	o, err := workloads[e.workload](e)
	if err != nil {
		return nil, err
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "concatbench: %s: gate: %s\n", e.workload, p)
	}
	rec := machineRecord(dir)
	rec["run"] = runID
	rec["workload"] = e.workload
	rec["seed"] = e.seed
	rec["windowSeconds"] = e.window.Seconds()
	for k, v := range o.record {
		rec[k] = v
	}
	if e.traced {
		o.metrics["failed_ratio"] = ratio(float64(o.failed), float64(o.attempted))
		spans := e.tr.snapshot()
		o.metrics["unattributed_ratio"] = unattributed(spans)
		path := filepath.Join(".bench_build", "traces", runID+".ndjson")
		if err := writeNDJSON(path, map[string]any{"machine": rec, "layers": perLayer}, spans); err != nil {
			return nil, err
		}
		rec["traceFile"] = path
	} else {
		o.metrics["peak_rss_mb"] = peakRSSMB()
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))

	set := endToEnd
	if e.traced {
		set = perLayer
	}
	res := &result{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range set {
		res.Metrics[m.Name] = metricValue{Value: o.metrics[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// machineRecord captures what the numbers depend on: CPUs, scheduler
// width, toolchain, platform and the scratch filesystem, plus the rule
// carried over from BENCH_PARALLEL: no parallel-speedup claim when the
// machine has fewer CPUs than the benchmark runs workers.
func machineRecord(dir string) map[string]any {
	workers := runtime.GOMAXPROCS(0)
	claims := "allowed"
	if runtime.NumCPU() < workers {
		claims = fmt.Sprintf("none: %d cpus < %d workers", runtime.NumCPU(), workers)
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     workers,
		"workers":        workers,
		"goVersion":      runtime.Version(),
		"os":             runtime.GOOS,
		"arch":           runtime.GOARCH,
		"storeFS":        fsType(dir),
		"parallelClaims": claims,
	}
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x9123683E: "btrfs",
		0x58465342: "xfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's peak resident set size. Pool workers are
// separate processes and are not included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runSmoke runs every workload once at minimum size, untraced and traced,
// and checks the gates plus that every metric BENCHMARK.json names is
// emitted and every emitted metric is declared there.
func runSmoke() int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "concatbench: smoke:", err)
		return 1
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "concatbench: smoke: BENCHMARK.json:", err)
		return 1
	}
	var failures []string
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
		if workloads[w.Name] == nil {
			failures = append(failures, "BENCHMARK.json names unknown workload "+w.Name)
		}
	}
	for _, name := range workloadOrder {
		if !declared[name] {
			failures = append(failures, "workload missing from BENCHMARK.json: "+name)
		}
	}
	sameNames := func(label string, want []metricDef, got map[string]metricValue) {
		for _, m := range want {
			v, ok := got[m.Name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: metric %s not emitted", label, m.Name))
			} else if v.Unit != m.Unit {
				failures = append(failures, fmt.Sprintf("%s: metric %s unit %q, BENCHMARK.json says %q", label, m.Name, v.Unit, m.Unit))
			}
		}
		if len(got) != len(want) {
			failures = append(failures, fmt.Sprintf("%s: emitted %d metrics, BENCHMARK.json declares %d", label, len(got), len(want)))
		}
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			label := fmt.Sprintf("%s trace=%d", name, boolInt(traced))
			res, err := runOne(&env{workload: name, seed: 42, traced: traced, smoke: true})
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", label, err))
				continue
			}
			if !res.Correct {
				failures = append(failures, label+": gates failed")
			}
			if traced {
				sameNames(label, spec.PerLayer, res.Metrics)
			} else {
				sameNames(label, spec.EndToEnd, res.Metrics)
				for n, v := range res.Metrics {
					if v.Value == 0 {
						failures = append(failures, fmt.Sprintf("%s: end-to-end metric %s is 0", label, n))
					}
				}
			}
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "concatbench: smoke:", f)
	}
	summary, _ := json.Marshal(map[string]any{"smoke": len(failures) == 0, "failures": len(failures)})
	fmt.Println(string(summary))
	if len(failures) > 0 {
		return 1
	}
	return 0
}
