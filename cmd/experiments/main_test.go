package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

func TestRunFigureArtifacts(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, selection{table1: true, figure2: true, figure3: true, figure6: true, seed: 42})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "IndVarRepReq",
		"Figure 2", "digraph",
		"Figure 3", "Class('Product'",
		"Figures 6-7", "package main",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunCounts(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, selection{counts: true, seed: 42}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"ObList model", "paper: 233", "paper: 329"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("counts missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunTables(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation experiments are slow")
	}
	var sb strings.Builder
	// The published tables leave surviving mutants, so a successful run ends
	// in the errSurvivors sentinel (exit code 2), not nil.
	if err := run(&sb, selection{table2: true, table3: true, baseline: true, seed: 42}); !errors.Is(err, errSurvivors) {
		t.Fatalf("run: %v, want errSurvivors", err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 2", "Results obtained for the SortableObList class",
		"Table 3", "paper: 159 mutants",
		"baseline", "Results obtained for the ObList class",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

// TestPublishedNumbersStable pins every campaign EXPERIMENTS.md publishes
// (seed 42): the whole output of `-counts -table2 -table3 -baseline
// -ablations` — per-method rows, totals and ablation scores — byte for byte
// against testdata/campaigns.golden, plus the headline totals by substring.
// A failure here means the published tables must be regenerated
// deliberately, not that the code is wrong. Refresh with
// `go test ./cmd/experiments -run TestPublishedNumbersStable -update`.
func TestPublishedNumbersStable(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation experiments are slow")
	}
	var sb strings.Builder
	if err := run(&sb, selection{counts: true, table2: true, table3: true, baseline: true, ablations: true, seed: 42}); !errors.Is(err, errSurvivors) {
		t.Fatalf("run: %v, want errSurvivors", err)
	}
	out := sb.String()
	goldenPath := filepath.Join("testdata", "campaigns.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("campaign output deviates from testdata/campaigns.golden (run with -update after a deliberate change):\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
	for _, want := range []string{
		"subclass new cases:     200",
		"subclass reused cases:  56",
		"parent cases skipped:   94",
		"92.9%", // experiment 1 total score
		"73.9%", // experiment 2 total score
		"96.4%", // baseline total score
	} {
		if !strings.Contains(out, want) {
			t.Errorf("published number %q missing from output", want)
		}
	}
}

// TestWarmCacheTablesByteIdentical reruns Table 3 against a shared verdict
// store: the warm run must replay every verdict and print the same bytes.
func TestWarmCacheTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation experiments are slow")
	}
	dir := t.TempDir()
	sel := selection{table3: true, seed: 42, cacheDir: dir}
	var cold strings.Builder
	if err := run(&cold, sel); !errors.Is(err, errSurvivors) {
		t.Fatalf("cold run: %v, want errSurvivors", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("verdict store empty after cold run (err %v)", err)
	}
	var warm strings.Builder
	if err := run(&warm, sel); !errors.Is(err, errSurvivors) {
		t.Fatalf("warm run: %v, want errSurvivors", err)
	}
	if cold.String() != warm.String() {
		t.Errorf("warm table differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.String(), warm.String())
	}
}

// TestCoverDirWritesArtifacts: with -cover-dir, experiment 2 (and its
// baseline) leave canonical coverage artifacts beside their tables, and the
// tables gain a transaction-coverage summary line.
func TestCoverDirWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation experiments are slow")
	}
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(&sb, selection{table3: true, baseline: true, seed: 42, coverDir: dir}); !errors.Is(err, errSurvivors) {
		t.Fatalf("run: %v, want errSurvivors", err)
	}
	if !strings.Contains(sb.String(), "coverage: transactions ") {
		t.Errorf("tables lack the coverage summary:\n%s", sb.String())
	}
	for _, name := range []string{"experiment2.json", "experiment2-baseline.json"} {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("artifact %s not written: %v", name, err)
		}
		for _, want := range []string{`"killMatrix"`, `"assertionSites"`, `"transactionsCovered"`} {
			if !strings.Contains(string(data), want) {
				t.Errorf("artifact %s missing %s", name, want)
			}
		}
	}
}
