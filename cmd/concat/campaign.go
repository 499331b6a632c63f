package main

// The campaign subcommands: mutation analysis, impact-driven re-runs, and
// rendering the coverage artifacts they write.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/impact"
	"concat/internal/tfm"
)

// checkSurvivors maps a finished campaign's count of surviving
// non-equivalent mutants to the exit-code contract: nil when there are
// none, errSurvivors otherwise.
func checkSurvivors(n int) error {
	if n > 0 {
		return fmt.Errorf("%d non-equivalent %w the test set", n, errSurvivors)
	}
	return nil
}

// splitMethods parses a comma-separated -methods list; empty is nil.
func splitMethods(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, m := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(m))
	}
	return out
}

func cmdMutate(fs *flag.FlagSet, args []string, w io.Writer) error {
	tf := addTargetFlag(fs, "")
	methods := fs.String("methods", "", "comma-separated methods to mutate (default: the component's experiment methods)")
	verbose := fs.Bool("v", false, "print per-mutant verdicts")
	cf := addCacheFlag(fs, "content-addressed verdict store directory (warm re-runs skip unchanged mutants)")
	coverPath := fs.String("cover", "", "write the canonical coverage artifact JSON (kill matrix included) to this file")
	parallel := addParallelFlag(fs, "mutant workers")
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
	suite, err := comp.GenerateSuite(gf.options())
	if err != nil {
		return err
	}
	var progress io.Writer
	if *verbose {
		progress = w
	}
	st, err := cf.open()
	if err != nil {
		return err
	}
	session, err := xf.start()
	if err != nil {
		return err
	}
	res, err := core.MutationRunOpts(t.Name, suite, splitMethods(*methods), progress,
		core.MutationOptions{Exec: session.opts, Store: st, Parallelism: *parallel})
	if err := session.close(err); err != nil {
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
	return checkSurvivors(table.Total.Mutants - table.Total.Killed - table.Total.Equivalent)
}

// cmdImpact is the test-impact analysis engine's CLI: diff two revisions of
// a component's t-spec, execute only the cases the edit invalidates, and
// replay everything else byte-identically from the verdict store. The final
// report (and -cover artifact) are identical to a cold full run on the new
// spec; the impact artifact records what was kept, re-run or regenerated
// and why.
func cmdImpact(fs *flag.FlagSet, args []string, w io.Writer) error {
	oldPath := fs.String("old", "", "old t-spec revision (text or JSON; - for stdin)")
	newPath := fs.String("new", "", "new t-spec revision (text or JSON; - for stdin)")
	tf := addTargetFlag(fs, "built-in component to execute against (default: the new spec's class)")
	cf := addCacheFlag(fs, "content-addressed verdict store backing warm replay")
	parallel := addParallelFlag(fs, "concurrent case executions")
	jsonOut := fs.Bool("json", false, "print the canonical impact artifact instead of the table")
	artifactPath := fs.String("artifact", "", "write the impact artifact JSON to this file")
	coverPath := fs.String("cover", "", "write the final run's coverage artifact JSON to this file")
	reportPath := fs.String("report", "", "write the final suite report text to this file")
	gf := addGenFlags(fs)
	xf := addExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		return usageError(fs.Name() + " needs -old FILE and -new FILE")
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
	if tf.name == "" {
		tf.name = newSpec.Class.Name
	}
	t, err := tf.target()
	if err != nil {
		return err
	}
	st, err := cf.open()
	if err != nil {
		return err
	}
	session, err := xf.start()
	if err != nil {
		return err
	}
	comp := t.New(nil)
	r := &impact.Runner{
		Factory:       comp.Factory,
		Providers:     comp.Providers,
		Gen:           gf.options(),
		Exec:          session.opts,
		Store:         st,
		Parallelism:   *parallel,
		MutantMethods: t.MutantMethods(),
	}
	res, err := r.Run(oldSpec, newSpec)
	if err := session.close(err); err != nil {
		return fmt.Errorf("impact analysis of %q: %w", t.Name, err)
	}
	raw, err := res.Report.Encode()
	if err != nil {
		return err
	}
	if *jsonOut {
		if _, err := w.Write(raw); err != nil {
			return err
		}
	} else {
		if err := res.Report.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s\n", t.Name, res.Suite.Stats())
		printReport(w, res.Final)
	}
	if *artifactPath != "" {
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

// cmdCover renders a stored coverage artifact — written by `selftest
// -cover`, `mutate -cover`, or fetched from the service's /coverage
// endpoint — as text tables, or with -dot as a heatmap overlay on the
// component's transaction flow model. It re-runs nothing: everything comes
// from the artifact, with only the graph rebuilt from the built-in
// component's embedded t-spec.
func cmdCover(fs *flag.FlagSet, args []string, w io.Writer) error {
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
		return usageError(fs.Name() + " needs -artifact FILE or - (or a positional artifact path)")
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
		spec, err := resolveSpec(art.Component, "")
		var g *tfm.Graph
		if err == nil {
			g, err = spec.TFM()
		}
		if err != nil {
			return fmt.Errorf("rebuilding the TFM for %q: %w", art.Component, err)
		}
		return art.WriteHeatmap(w, g)
	}
	return art.Render(w)
}
