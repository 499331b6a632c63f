package main

// The spec and suite subcommands: read, render and export t-specs, and
// generate, run, record and regress the suites they yield.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/obs"
	"concat/internal/testexec"
	"concat/internal/tfm"
	"concat/internal/tspec"
)

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

// positionalSpec is the spec graph and paths render: the file named by the
// one positional argument, else the -component's embedded spec.
func positionalSpec(fs *flag.FlagSet, tf *targetFlag) (*tspec.Spec, error) {
	if fs.NArg() == 1 {
		return loadSpecFile(fs.Arg(0))
	}
	return resolveSpec(tf.name, "")
}

// writeOut hands write the file created at path, or w when path is empty,
// and closes the file, returning the first error.
func writeOut(path string, w io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

func cmdList(_ *flag.FlagSet, _ []string, w io.Writer) error {
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

func cmdValidate(fs *flag.FlagSet, args []string, w io.Writer) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError(fs.Name() + " takes one spec file")
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

func cmdGraph(fs *flag.FlagSet, args []string, w io.Writer) error {
	highlight := fs.String("highlight", "", "comma-separated node path to highlight")
	tf := addTargetFlag(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := positionalSpec(fs, tf)
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

func cmdPaths(fs *flag.FlagSet, args []string, w io.Writer) error {
	k := fs.Int("k", 1, "loop bound")
	criterion := fs.String("criterion", "all-transactions", "coverage criterion")
	tf := addTargetFlag(fs, "")
	limit := fs.Int("limit", 0, "maximum transactions (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := positionalSpec(fs, tf)
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

func cmdGen(fs *flag.FlagSet, args []string, w io.Writer) error {
	tf := addTargetFlag(fs, "")
	specPath := fs.String("spec", "", "t-spec file")
	out := fs.String("out", "", "output file (default stdout)")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := resolveSpec(tf.name, *specPath)
	if err != nil {
		return err
	}
	suite, err := driver.Generate(spec, gf.options())
	if err != nil {
		return err
	}
	if err := writeOut(*out, w, suite.Save); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s for %s (seed %d)\n", suite.Stats(), spec.Class.Name, gf.seed)
	return nil
}

func cmdRun(fs *flag.FlagSet, args []string, w io.Writer) error {
	sf := addSuiteFlags(fs)
	logPath := fs.String("log", "", "write the Result.txt-style log to this file")
	xf := addExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	comp, suite, err := sf.load()
	if err != nil {
		return err
	}
	session, err := xf.start()
	if err != nil {
		return err
	}
	var rep *testexec.Report
	err = writeOut(*logPath, io.Discard, func(log io.Writer) (err error) {
		opts := session.opts
		opts.LogWriter = log
		rep, err = comp.RunSuite(suite, opts)
		return err
	})
	if err := session.close(err); err != nil {
		return err
	}
	if err := rep.Render(w); err != nil {
		return err
	}
	if !rep.AllPassed() {
		return fmt.Errorf("%d test cases did not pass", len(rep.Failures()))
	}
	return nil
}

func cmdSelfTest(fs *flag.FlagSet, args []string, w io.Writer) error {
	tf := addTargetFlag(fs, "")
	cf := addCacheFlag(fs, "content-addressed verdict store directory (cases recorded there replay without executing)")
	coverPath := fs.String("cover", "", "write the canonical coverage artifact JSON to this file")
	gf := addGenFlags(fs)
	xf := addExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := tf.target()
	if err != nil {
		return err
	}
	comp := t.New(nil)
	st, err := cf.open()
	if err != nil {
		return err
	}
	session, err := xf.start()
	if err != nil {
		return err
	}
	var suite *driver.Suite
	var rep *testexec.Report
	var cache *impact.Report
	if st == nil {
		suite, err = comp.GenerateSuite(gf.options())
		if err == nil {
			rep, err = comp.RunSuite(suite, session.opts)
		}
	} else {
		// The spec diffed against itself keeps every case: each replays
		// from its per-case store entry, and a miss runs and records it —
		// the entries `concat impact` reads.
		var c *core.Campaign
		if c, err = t.Impact(comp.Spec(), comp.Spec(), gf.options(), core.MutationOptions{Exec: session.opts, Store: st}); err == nil {
			suite, rep, cache = c.Suite, c.Impact.Final, c.Impact.Report
		}
	}
	if err := session.close(err); err != nil {
		return fmt.Errorf("self-test of %q: %w", t.Name, err)
	}
	if cache != nil {
		// Stderr, not w: cached and fresh runs print identical reports.
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%s)\n", cache.CacheHits, cache.CacheMisses, st.Dir())
	}
	fmt.Fprintf(w, "%s: %s\n", t.Name, suite.Stats())
	if err := rep.Render(w); err != nil {
		return err
	}
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

// cmdRecord runs a suite against the current component build and stores the
// observable outputs as the golden reference — the producer-side half of
// the paper's regression-testing use of embedded suites (§2.4).
func cmdRecord(fs *flag.FlagSet, args []string, w io.Writer) error {
	sf := addSuiteFlags(fs)
	goldenPath := fs.String("golden", "", "output file for the golden reference")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *goldenPath == "" {
		return usageError(fs.Name() + " needs -golden FILE")
	}
	comp, suite, err := sf.load()
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
	if err := writeOut(*goldenPath, nil, testexec.NewGolden(rep).Save); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded golden reference for %s: %d cases -> %s\n",
		suite.Component, len(rep.Results), *goldenPath)
	return nil
}

// cmdRegress re-runs a suite and compares every case's observable output
// against the recorded reference — the consumer-side regression check after
// a new component release (the paper's CObList-maintenance scenario).
func cmdRegress(fs *flag.FlagSet, args []string, w io.Writer) error {
	sf := addSuiteFlags(fs)
	goldenPath := fs.String("golden", "", "golden reference file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *goldenPath == "" {
		return usageError(fs.Name() + " needs -golden FILE")
	}
	comp, suite, err := sf.load()
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
	if err := rep.Render(w); err != nil {
		return err
	}
	if !rep.AllPassed() {
		return fmt.Errorf("regression detected: %d cases deviate from the recorded behaviour",
			len(rep.Failures()))
	}
	fmt.Fprintln(w, "no regressions: behaviour matches the recorded reference")
	return nil
}

func cmdSoak(fs *flag.FlagSet, args []string, w io.Writer) error {
	tf := addTargetFlag(fs, "")
	cases := fs.Int("cases", 200, "number of random transactions")
	maxLen := fs.Int("maxlen", 0, "maximum walk length (0 = 4x node count)")
	seed := fs.Int64("seed", 42, "generation seed")
	walkBudget := fs.Int64("walk-budget", 0, "per-case generation step budget (0 = unbounded)")
	xf := addExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := tf.target()
	if err != nil {
		return err
	}
	comp := t.New(nil)
	session, err := xf.start()
	if err != nil {
		return err
	}
	suite, err := driver.GenerateSoak(comp.Spec(), driver.SoakOptions{
		Seed: *seed, Cases: *cases, MaxLength: *maxLen, StepBudget: *walkBudget,
		Trace: session.opts.Trace, Metrics: session.opts.Metrics,
	})
	if err != nil {
		return session.close(err)
	}
	fmt.Fprintf(w, "soak suite: %s\n", suite.Stats())
	rep, err := comp.RunSuite(suite, session.opts)
	if err := session.close(err); err != nil {
		return err
	}
	if err := rep.Render(w); err != nil {
		return err
	}
	if !rep.AllPassed() {
		return fmt.Errorf("%d soak cases did not pass", len(rep.Failures()))
	}
	return nil
}

func cmdDerive(fs *flag.FlagSet, args []string, w io.Writer) error {
	parent := fs.String("parent", "", "parent component name")
	child := fs.String("child", "", "child component name")
	out := fs.String("out", "", "write the derived suite JSON here")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *child == "" {
		return usageError(fs.Name() + " needs -parent and -child")
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
	if *out == "" {
		return nil
	}
	return writeOut(*out, nil, d.Suite.Save)
}

func cmdEmit(fs *flag.FlagSet, args []string, w io.Writer) error {
	tf := addTargetFlag(fs, "")
	specPath := fs.String("spec", "", "t-spec file")
	importPath := fs.String("import", "", "import path of the factory package")
	factory := fs.String("factory", "", "factory construction expression")
	out := fs.String("out", "", "output file (default stdout)")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := resolveSpec(tf.name, *specPath)
	if err != nil {
		return err
	}
	suite, err := driver.Generate(spec, gf.options())
	if err != nil {
		return err
	}
	return writeOut(*out, w, func(dst io.Writer) error {
		return driver.Emit(dst, suite, driver.EmitOptions{ComponentImport: *importPath, FactoryExpr: *factory})
	})
}

// cmdSpec exports a t-spec — a built-in component's embedded one, or a
// textual spec file — as the canonical JSON wire form that impact, gen,
// validate and the service accept.
func cmdSpec(fs *flag.FlagSet, args []string, w io.Writer) error {
	tf := addTargetFlag(fs, "")
	specPath := fs.String("spec", "", "t-spec file to convert")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := resolveSpec(tf.name, *specPath)
	if err != nil {
		return err
	}
	return writeOut(*out, w, spec.SaveJSON)
}

// cmdTraceValidate checks an emitted NDJSON trace against the span
// schema: every line a valid span, IDs unique, parent references
// resolvable, kinds known. CI runs it on hostile-suite traces to catch
// schema drift.
func cmdTraceValidate(fs *flag.FlagSet, args []string, w io.Writer) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return usageError(fs.Name() + " takes one NDJSON trace file, or - (or no argument) for stdin")
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
