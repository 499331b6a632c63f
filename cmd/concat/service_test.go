package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"concat/internal/serve"
	"concat/internal/store"
	"concat/internal/tspec"
)

// startService runs the campaign service behind an httptest listener and
// returns its base URL — what `concat serve` exposes, minus the fixed port.
func startService(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

func TestCLISubmitWaitAndStatus(t *testing.T) {
	url := startService(t, serve.Config{})
	out := mustRunCLI(t, "submit", "-addr", url, "-component", "Account", "-wait")
	if !strings.Contains(out, "submitted c1 (Account)") {
		t.Errorf("submit output lacks acknowledgement: %q", out)
	}
	if !strings.Contains(out, "Results obtained for the Account class") {
		t.Errorf("submit -wait did not print the report:\n%s", out)
	}
	statusOut := mustRunCLI(t, "status", "-addr", url, "-id", "c1")
	for _, want := range []string{`"id": "c1"`, `"state": "done"`} {
		if !strings.Contains(statusOut, want) {
			t.Errorf("status output missing %s:\n%s", want, statusOut)
		}
	}
	listOut := mustRunCLI(t, "status", "-addr", url)
	if !strings.Contains(listOut, `"id": "c1"`) {
		t.Errorf("status list missing c1:\n%s", listOut)
	}
}

func TestCLISubmitWithoutWaitReturnsImmediately(t *testing.T) {
	url := startService(t, serve.Config{})
	out := mustRunCLI(t, "submit", "-addr", url, "-component", "Account")
	if strings.Contains(out, "Results obtained") {
		t.Errorf("submit without -wait printed a report:\n%s", out)
	}
}

func TestCLISubmitSurvivorsExitContract(t *testing.T) {
	// ObList's own suite leaves survivors, so a waited submission must end
	// in the errSurvivors sentinel — the CLI maps it to exit code 2.
	url := startService(t, serve.Config{})
	out, err := runCLI(t, "submit", "-addr", url, "-component", "ObList", "-wait")
	if !errors.Is(err, errSurvivors) {
		t.Errorf("ObList submission error = %v, want errSurvivors", err)
	}
	if !strings.Contains(out, "Results obtained for the ObList class") {
		t.Errorf("report missing despite survivors:\n%s", out)
	}
}

func TestCLIMutateSurvivorsExitContract(t *testing.T) {
	out, err := runCLI(t, "mutate", "-component", "ObList")
	if !errors.Is(err, errSurvivors) {
		t.Errorf("mutate ObList error = %v, want errSurvivors", err)
	}
	// The table still renders in full before the contract error.
	if !strings.Contains(out, "Score") {
		t.Errorf("table missing from survivor run:\n%s", out)
	}
}

func TestCLISubmitErrors(t *testing.T) {
	url := startService(t, serve.Config{})
	if _, err := runCLI(t, "submit", "-addr", url); err == nil {
		t.Error("submit without component should fail")
	}
	if _, err := runCLI(t, "submit", "-addr", url, "-component", "NoSuch"); err == nil {
		t.Error("unknown component should fail")
	}
	// omitempty drops a zero seed and the service runs 42 in its place, so
	// submit refuses it rather than report a different campaign.
	if _, err := runCLI(t, "submit", "-addr", url, "-component", "Account", "-seed", "0"); err == nil ||
		!strings.Contains(err.Error(), "default 42") {
		t.Errorf("submit -seed 0: err = %v, want a usage error naming the service's default 42", err)
	}
	if _, err := runCLI(t, "status", "-addr", url, "-id", "zz"); err == nil {
		t.Error("unknown campaign ID should fail")
	}
	if _, err := runCLI(t, "submit", "-addr", "127.0.0.1:1", "-component", "Account"); err == nil {
		t.Error("unreachable service should fail")
	}
}

func TestCLIMutateCacheDir(t *testing.T) {
	dir := t.TempDir()
	cold := mustRunCLI(t, "mutate", "-component", "Account", "-cache-dir", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cache dir is empty after a cold campaign")
	}
	warm := mustRunCLI(t, "mutate", "-component", "Account", "-cache-dir", dir)
	if cold != warm {
		t.Errorf("warm cached table differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	// The cache-hit path must apply the same verdict contract: survivors
	// replayed from the store still exit nonzero.
	if _, err := runCLI(t, "mutate", "-component", "ObList", "-cache-dir", dir); !errors.Is(err, errSurvivors) {
		t.Fatalf("cold ObList error = %v, want errSurvivors", err)
	}
	if _, err := runCLI(t, "mutate", "-component", "ObList", "-cache-dir", dir); !errors.Is(err, errSurvivors) {
		t.Errorf("warm ObList error = %v, want errSurvivors", err)
	}
}

func TestCLISelftestCacheDir(t *testing.T) {
	dir := t.TempDir()
	var cold, warm string
	coldLog := captureStderr(t, func() { cold = mustRunCLI(t, "selftest", "-component", "Product", "-cache-dir", dir) })
	warmLog := captureStderr(t, func() { warm = mustRunCLI(t, "selftest", "-component", "Product", "-cache-dir", dir) })
	if cold != warm {
		t.Errorf("cached selftest output differs:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Errorf("selftest cache dir empty (err %v)", err)
	}
	// The stderr line counts cases, as mutate's counts mutants: the cold
	// run misses every case and records it, the warm run replays them all.
	var n int
	if _, err := fmt.Sscanf(coldLog, "cache: 0 hits, %d misses", &n); err != nil || n == 0 {
		t.Errorf("cold selftest stderr = %q, want \"cache: 0 hits, N misses (...)\" with N > 0", coldLog)
	}
	if want := fmt.Sprintf("cache: %d hits, 0 misses (%s)\n", n, dir); warmLog != want {
		t.Errorf("warm selftest stderr = %q, want %q", warmLog, want)
	}
}

// TestCLISelftestPrimesImpact: selftest -cache-dir records the per-case
// entries impact reads, so an impact diff of the same spec on that store
// executes nothing.
func TestCLISelftestPrimesImpact(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(t.TempDir(), "spec.json")
	mustRunCLI(t, "spec", "-component", "Account", "-out", spec)
	captureStderr(t, func() { mustRunCLI(t, "selftest", "-component", "Account", "-cache-dir", dir) })
	out := mustRunCLI(t, "impact", "-old", spec, "-new", spec, "-cache-dir", dir, "-json")
	var r struct{ Kept, CacheHits, CacheMisses int }
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("decoding the impact artifact: %v\n%s", err, out)
	}
	if r.CacheMisses != 0 || r.CacheHits != r.Kept || r.Kept == 0 {
		t.Errorf("impact on a selftest-primed store: %d kept, %d hits, %d misses; want every case kept and warm",
			r.Kept, r.CacheHits, r.CacheMisses)
	}
}

// captureStderr runs f with os.Stderr redirected to a pipe and returns
// what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	saved := os.Stderr
	os.Stderr = w
	func() {
		defer func() {
			os.Stderr = saved
			w.Close()
		}()
		f()
	}()
	return <-out
}

func TestCLIServeFlagValidation(t *testing.T) {
	if _, err := runCLI(t, "serve", "-addr", "not an address"); err == nil {
		t.Error("invalid listen address should fail")
	}
}

// TestCLIServeParallel: serve names its worker knob -parallel like every
// other command; the old -parallelism spelling is gone.
func TestCLIServeParallel(t *testing.T) {
	// The flags parse, so serve gets as far as the listener.
	if _, err := runCLI(t, "serve", "-parallel", "2", "-addr", "not an address"); err == nil || !strings.Contains(err.Error(), "listening on") {
		t.Errorf("serve -parallel 2: err = %v, want the listen error", err)
	}
	if _, err := runCLI(t, "serve", "-parallelism", "2"); err == nil || !strings.Contains(err.Error(), "-parallelism") {
		t.Errorf("serve -parallelism 2: err = %v, want an undefined-flag error", err)
	}
}

// TestCLIWorkParallel: work takes -parallel and rejects -parallelism.
func TestCLIWorkParallel(t *testing.T) {
	url := startService(t, serve.Config{Store: store.NewMem()})
	out, err := runCLI(t, "work", "-coordinator", url, "-parallel", "2", "-poll", "1ms", "-idle-exit", "1ms", "-quiet")
	if err != nil || !strings.Contains(out, "concat work: 0 shard(s) completed") {
		t.Errorf("work -parallel 2 = %v\n%s", err, out)
	}
	if _, err := runCLI(t, "work", "-parallelism", "2"); err == nil || !strings.Contains(err.Error(), "-parallelism") {
		t.Errorf("work -parallelism 2: err = %v, want an undefined-flag error", err)
	}
	// The signal watcher ends with the command: an in-process caller keeps
	// no goroutine of cmdWork once the worker has returned.
	var stacks string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, ".cmdWork") || time.Now().After(deadline) {
			break
		}
	}
	if strings.Contains(stacks, ".cmdWork") {
		t.Errorf("a cmdWork goroutine outlived the command:\n%s", stacks)
	}
}

// TestCLIServiceIdentity: the CLI and the service run each campaign kind
// through the same core step, so for one input they answer the same bytes.
// The service's /coverage (and /impact) equal the CLI's artifact files, and
// its /report equals the CLI's stdout without the " -> FILE" suffix that
// -cover adds. Each side starts from a fresh store.
func TestCLIServiceIdentity(t *testing.T) {
	dir := t.TempDir()
	newSpec := filepath.Join(dir, "new.json")
	mustRunCLI(t, "spec", "-component", "Account", "-out", newSpec)
	oldSpec := filepath.Join(dir, "old.json")
	writePerturbedSpec(t, newSpec, oldSpec)
	oldRaw, err := os.ReadFile(oldSpec)
	if err != nil {
		t.Fatal(err)
	}
	newRaw, err := os.ReadFile(newSpec)
	if err != nil {
		t.Fatal(err)
	}
	art, cov := filepath.Join(dir, "impact.json"), filepath.Join(dir, "cover.json")
	tests := []struct {
		name  string
		args  []string
		path  string
		req   serve.Request
		files map[string]string // service endpoint -> the CLI file it must equal
	}{
		{
			name:  "mutation",
			args:  []string{"mutate", "-component", "Account", "-expand", "-alt", "4", "-cover", cov},
			path:  "/campaigns",
			req:   serve.Request{Component: "Account", Expand: true, Alt: 4},
			files: map[string]string{"coverage": cov},
		},
		{
			name: "impact",
			args: []string{"impact", "-old", oldSpec, "-new", newSpec, "-cache-dir", t.TempDir(),
				"-artifact", art, "-cover", cov},
			path:  "/impact",
			req:   serve.Request{Component: "Account", OldSpec: oldRaw, NewSpec: newRaw},
			files: map[string]string{"impact": art, "coverage": cov},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout string
			captureStderr(t, func() {
				var err error
				if stdout, err = runCLI(t, tt.args...); err != nil && !errors.Is(err, errSurvivors) {
					t.Fatalf("concat %s: %v\n%s", strings.Join(tt.args, " "), err, stdout)
				}
			})
			url := startService(t, serve.Config{Store: store.NewMem()})
			body, err := json.Marshal(tt.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(url+tt.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST %s: HTTP %d", tt.path, resp.StatusCode)
			}
			if got, want := httpGet(t, url+"/campaigns/c1/report"), strings.Replace(stdout, " -> "+cov+"\n", "\n", 1); got != want {
				t.Errorf("/report differs from the CLI's stdout:\n--- service ---\n%s\n--- cli ---\n%s", got, want)
			}
			for endpoint, path := range tt.files {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := httpGet(t, url+"/campaigns/c1/"+endpoint); got != string(want) {
					t.Errorf("/%s differs from the CLI's %s:\n--- service ---\n%s\n--- cli ---\n%s", endpoint, path, got, want)
				}
			}
		})
	}
}

// writePerturbedSpec writes the spec at src to dst with its first
// non-degenerate range parameter domain collapsed to its low bound: an
// earlier revision whose edit invalidates that method's cases.
func writePerturbedSpec(t *testing.T, src, dst string) {
	t.Helper()
	spec, err := loadSpecFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range spec.Methods {
		for j, p := range m.Params {
			if p.Domain.Kind == tspec.DomRange && p.Domain.Lo != p.Domain.Hi {
				spec.Methods[i].Params[j].Domain.Hi = p.Domain.Lo
				if err := writeOut(dst, nil, spec.SaveJSON); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatalf("spec %s has no range parameter to perturb", spec.Class.Name)
}

// httpGet returns the body of a 200 response to GET url.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}
