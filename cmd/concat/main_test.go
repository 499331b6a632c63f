package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func mustRunCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("concat %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

func writeTempSpec(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.tspec")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliSpec = `
Class('Gauge', No, <empty>, <empty>)
Attribute('level', range, 0, 10)
Method(m1, 'Gauge', <empty>, constructor, 0)
Method(m2, '~Gauge', <empty>, destructor, 0)
Method(m3, 'Bump', <empty>, update, 1)
Parameter(m3, 'by', range, 1, 3)
Node(n1, Yes, 1, [m1])
Node(n2, No, 1, [m3])
Node(n3, No, 0, [m2])
Edge(n1, n2)
Edge(n2, n3)
`

func TestCLIUsageErrors(t *testing.T) {
	if _, err := runCLI(t); err == nil {
		t.Error("no args should fail")
	}
	if _, err := runCLI(t, "frobnicate"); err == nil {
		t.Error("unknown subcommand should fail")
	}
	out := mustRunCLI(t, "help")
	if !strings.Contains(out, "selftest") {
		t.Errorf("help output: %q", out)
	}
}

func TestCLIList(t *testing.T) {
	out := mustRunCLI(t, "list")
	for _, want := range []string{"Account", "ObList", "SortableObList", "Product"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestCLIValidate(t *testing.T) {
	path := writeTempSpec(t, cliSpec)
	out := mustRunCLI(t, "validate", path)
	if !strings.Contains(out, `spec "Gauge" is valid`) {
		t.Errorf("validate output: %q", out)
	}
	bad := writeTempSpec(t, "Class('X', No, <empty>, <empty>)")
	if _, err := runCLI(t, "validate", bad); err == nil {
		t.Error("invalid spec should fail")
	}
	if _, err := runCLI(t, "validate"); err == nil {
		t.Error("validate without file should fail")
	}
	if _, err := runCLI(t, "validate", filepath.Join(t.TempDir(), "absent.tspec")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestCLIGraph(t *testing.T) {
	path := writeTempSpec(t, cliSpec)
	out := mustRunCLI(t, "graph", path)
	if !strings.Contains(out, "digraph \"Gauge\"") {
		t.Errorf("graph output: %q", out)
	}
	out = mustRunCLI(t, "graph", "-component", "Product", "-highlight", "n1,n3,n5,n6")
	if !strings.Contains(out, "color=red") {
		t.Error("highlight missing from DOT")
	}
}

func TestCLIPaths(t *testing.T) {
	path := writeTempSpec(t, cliSpec)
	out := mustRunCLI(t, "paths", path)
	if !strings.Contains(out, "n1 -> n2 -> n3") || !strings.Contains(out, "1 transactions") {
		t.Errorf("paths output: %q", out)
	}
	out = mustRunCLI(t, "paths", "-component", "ObList", "-criterion", "all-links")
	if !strings.Contains(out, "all-links") {
		t.Errorf("criterion output: %q", out)
	}
	if _, err := runCLI(t, "paths", "-criterion", "bogus", path); err == nil {
		t.Error("bad criterion should fail")
	}
	out = mustRunCLI(t, "paths", "-component", "ObList", "-limit", "5")
	if !strings.Contains(out, "warning") {
		t.Errorf("truncation warning missing: %q", out)
	}
}

func TestCLIGenAndRun(t *testing.T) {
	dir := t.TempDir()
	suitePath := filepath.Join(dir, "suite.json")
	mustRunCLI(t, "gen", "-component", "Account", "-seed", "9", "-out", suitePath)
	if _, err := os.Stat(suitePath); err != nil {
		t.Fatalf("suite not written: %v", err)
	}
	logPath := filepath.Join(dir, "result.txt")
	out := mustRunCLI(t, "run", "-component", "Account", "-suite", suitePath, "-log", logPath)
	if !strings.Contains(out, "pass=") {
		t.Errorf("run output: %q", out)
	}
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logData), "OK!") {
		t.Errorf("log: %q", logData)
	}
	// Error paths.
	if _, err := runCLI(t, "run", "-component", "Account"); err == nil {
		t.Error("run without suite should fail")
	}
	if _, err := runCLI(t, "run", "-component", "Nope", "-suite", suitePath); err == nil {
		t.Error("unknown component should fail")
	}
	if _, err := runCLI(t, "gen", "-component", "Account", "-spec", suitePath); err == nil {
		t.Error("component+spec together should fail")
	}
	if _, err := runCLI(t, "gen"); err == nil {
		t.Error("gen without target should fail")
	}
}

func TestCLIGenFromSpecFile(t *testing.T) {
	path := writeTempSpec(t, cliSpec)
	out := mustRunCLI(t, "gen", "-spec", path)
	if !strings.Contains(out, `"component": "Gauge"`) {
		t.Errorf("gen output: %q", out)
	}
}

func TestCLISelfTest(t *testing.T) {
	out := mustRunCLI(t, "selftest", "-component", "Product", "-expand", "-alt", "3")
	if !strings.Contains(out, "pass=") {
		t.Errorf("selftest output: %q", out)
	}
	if _, err := runCLI(t, "selftest"); err == nil {
		t.Error("selftest without component should fail")
	}
}

func TestCLIDerive(t *testing.T) {
	dir := t.TempDir()
	out := mustRunCLI(t, "derive", "-parent", "ObList", "-child", "SortableObList",
		"-expand", "-alt", "2", "-out", filepath.Join(dir, "derived.json"))
	want := "derived suite for SortableObList (parent ObList):\n" +
		"  transactions: 18 skipped, 22 reused, 22 regenerated\n" +
		"  test cases:   44 new, 44 reused from parent, 36 parent cases skipped\n" +
		"  methods:      12 inherited, 3 redefined, 8 new\n"
	if out != want {
		t.Errorf("derive output:\n%s\nwant:\n%s", out, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "derived.json")); err != nil {
		t.Errorf("derived suite not written: %v", err)
	}
	if _, err := runCLI(t, "derive", "-parent", "ObList"); err == nil {
		t.Error("derive without child should fail")
	}
	if _, err := runCLI(t, "derive", "-parent", "Account", "-child", "Product"); err == nil {
		t.Error("unrelated classes should fail derivation")
	}
}

func TestCLIMutate(t *testing.T) {
	out := mustRunCLI(t, "mutate", "-component", "Account", "-expand", "-alt", "4")
	for _, want := range []string{"Results obtained for the Account class", "#killed", "Score"} {
		if !strings.Contains(out, want) {
			t.Errorf("mutate output missing %q:\n%s", want, out)
		}
	}
	out = mustRunCLI(t, "mutate", "-component", "Account", "-expand", "-methods", "Withdraw", "-v")
	if !strings.Contains(out, "killed by") {
		t.Errorf("verbose mutate output: %q", out)
	}
	if _, err := runCLI(t, "mutate"); err == nil {
		t.Error("mutate without component should fail")
	}
	if _, err := runCLI(t, "mutate", "-component", "Product"); err == nil {
		t.Error("uninstrumented component should fail")
	}
}

func TestCLIEmit(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "driver.go")
	mustRunCLI(t, "emit", "-component", "Account",
		"-import", "concat/internal/components/account",
		"-factory", "account.NewFactory()",
		"-out", outPath)
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "package main") {
		t.Errorf("emitted driver: %q", data[:60])
	}
	if _, err := runCLI(t, "emit", "-component", "Account"); err == nil {
		t.Error("emit without import/factory should fail")
	}
}

func TestCLISoak(t *testing.T) {
	out := mustRunCLI(t, "soak", "-component", "Account", "-cases", "30", "-seed", "5")
	if !strings.Contains(out, "soak suite: 30 test cases") || !strings.Contains(out, "pass=30") {
		t.Errorf("soak output: %q", out)
	}
	if _, err := runCLI(t, "soak"); err == nil {
		t.Error("soak without component should fail")
	}
	if _, err := runCLI(t, "soak", "-component", "Nope"); err == nil {
		t.Error("unknown component should fail")
	}
}

func TestCLIRecordAndRegress(t *testing.T) {
	dir := t.TempDir()
	suitePath := filepath.Join(dir, "suite.json")
	goldenPath := filepath.Join(dir, "golden.json")
	mustRunCLI(t, "gen", "-component", "Account", "-seed", "3", "-out", suitePath)
	out := mustRunCLI(t, "record", "-component", "Account", "-suite", suitePath, "-golden", goldenPath)
	if !strings.Contains(out, "recorded golden reference") {
		t.Errorf("record output: %q", out)
	}
	// The same build regresses cleanly.
	out = mustRunCLI(t, "regress", "-component", "Account", "-suite", suitePath, "-golden", goldenPath)
	if !strings.Contains(out, "no regressions") {
		t.Errorf("regress output: %q", out)
	}
	// A doctored golden file is detected as a regression.
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data), "NEW Account(", "NEW Acc0unt(", 1)
	if doctored == string(data) {
		t.Fatal("test setup: transcript marker not found")
	}
	if err := os.WriteFile(goldenPath, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "regress", "-component", "Account", "-suite", suitePath, "-golden", goldenPath); err == nil {
		t.Error("doctored golden should report a regression")
	}
	// Error paths.
	if _, err := runCLI(t, "record", "-component", "Account", "-suite", suitePath); err == nil {
		t.Error("record without -golden should fail")
	}
	if _, err := runCLI(t, "regress", "-component", "Account", "-suite", suitePath); err == nil {
		t.Error("regress without -golden should fail")
	}
	if _, err := runCLI(t, "regress", "-component", "ObList", "-suite", suitePath, "-golden", goldenPath); err == nil {
		t.Error("component mismatch should fail")
	}
}

// TestCLICoverRoundTrip drives the full coverage path: selftest and mutate
// write canonical artifacts, `concat cover` renders them as tables and as a
// DOT heatmap, and the selftest/mutate artifacts agree on suite coverage.
func TestCLICoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	selfArt := filepath.Join(dir, "selftest.json")
	out := mustRunCLI(t, "selftest", "-component", "Account", "-expand", "-alt", "4", "-cover", selfArt)
	if !strings.Contains(out, "coverage: transactions ") {
		t.Errorf("selftest -cover did not print a summary:\n%s", out)
	}
	mutArt := filepath.Join(dir, "mutate.json")
	out = mustRunCLI(t, "mutate", "-component", "Account", "-expand", "-alt", "4", "-cover", mutArt)
	if !strings.Contains(out, "coverage: transactions ") {
		t.Errorf("mutate -cover did not print a summary:\n%s", out)
	}

	rendered := mustRunCLI(t, "cover", "-artifact", mutArt)
	for _, want := range []string{"Component: Account", "TRANSACTION", "ASSERTION SITE", "MUTANT", "OPERATOR"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("cover rendering missing %q:\n%s", want, rendered)
		}
	}
	// Positional artifact path works too, and renders identically.
	if positional := mustRunCLI(t, "cover", mutArt); positional != rendered {
		t.Error("positional and -artifact renderings differ")
	}

	dot := mustRunCLI(t, "cover", "-artifact", mutArt, "-dot")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "hits") {
		t.Errorf("cover -dot output is not a heatmap:\n%s", dot)
	}

	// selftest and mutate ran the same generated suite: identical coverage.
	selfData, err := os.ReadFile(selfArt)
	if err != nil {
		t.Fatal(err)
	}
	mutData, err := os.ReadFile(mutArt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(selfData), `"transactionsCovered"`) {
		t.Errorf("selftest artifact lacks coverage fields:\n%s", selfData)
	}
	if len(mutData) <= len(selfData) {
		t.Error("mutate artifact should additionally carry the kill matrix")
	}

	// Error paths.
	if _, err := runCLI(t, "cover"); err == nil {
		t.Error("cover without an artifact should fail")
	}
	if _, err := runCLI(t, "cover", "-artifact", filepath.Join(dir, "missing.json")); err == nil {
		t.Error("cover on a missing file should fail")
	}
}

// TestCLIMutateParallelArtifactIdentical is the CI byte-identity claim in
// miniature: a serial and a 4-way parallel campaign write the same artifact.
func TestCLIMutateParallelArtifactIdentical(t *testing.T) {
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.json")
	parallel := filepath.Join(dir, "parallel.json")
	mustRunCLI(t, "mutate", "-component", "Account", "-expand", "-cover", serial)
	mustRunCLI(t, "mutate", "-component", "Account", "-expand", "-cover", parallel, "-parallel", "4")
	a, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("serial and parallel artifacts differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestCLITraceValidateStdin: the satellite contract — `concat
// trace-validate -` (and no argument at all) reads the NDJSON stream from
// stdin.
func TestCLITraceValidateStdin(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.ndjson")
	mustRunCLI(t, "selftest", "-component", "Product", "-trace", tracePath)

	for _, args := range [][]string{{"trace-validate", "-"}, {"trace-validate"}} {
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stdin
		os.Stdin = f
		out, err := runCLI(t, args...)
		os.Stdin = saved
		f.Close()
		if err != nil {
			t.Fatalf("concat %s: %v", strings.Join(args, " "), err)
		}
		if !strings.Contains(out, "trace stdin:") || !strings.Contains(out, "schema-valid") {
			t.Errorf("stdin validation output: %q", out)
		}
	}

	// The file path still works, and extra arguments still fail.
	out := mustRunCLI(t, "trace-validate", tracePath)
	if !strings.Contains(out, "schema-valid") {
		t.Errorf("file validation output: %q", out)
	}
	if _, err := runCLI(t, "trace-validate", tracePath, tracePath); err == nil {
		t.Error("two arguments should fail")
	}
}
