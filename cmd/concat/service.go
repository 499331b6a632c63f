package main

// The service subcommands: the campaign service itself, its remote
// worker, and the clients that submit to, query and load it.

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

	"concat/internal/loadgen"
	"concat/internal/sandbox"
	"concat/internal/serve"
	"concat/internal/store"
)

// serviceURL normalizes a service address (host:port or URL) into a base
// URL.
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

// stderrLogf is the per-event log line of serve, loadgen and work.
func stderrLogf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// cmdServe runs the campaign service: an HTTP/JSON API over a bounded job
// queue and worker pool, sharing one verdict store across all submissions.
// With -journal DIR submissions are write-ahead journaled and replayed on
// restart. It serves until killed; SIGTERM or SIGINT triggers a graceful
// drain (admission closed with 503 + Retry-After, in-flight jobs finished
// within -drain-timeout, journal checkpointed) before exit.
func cmdServe(fs *flag.FlagSet, args []string, w io.Writer) error {
	af := addAddrFlag(fs, "listen address (host:port)")
	cf := addCacheFlag(fs, "content-addressed verdict store shared by all campaigns")
	journalDir := fs.String("journal", "", "write-ahead job journal directory (campaigns survive restarts)")
	workers := fs.Int("workers", 1, "campaigns running concurrently")
	queue := fs.Int("queue", 16, "pending-campaign queue depth (full queue returns 503)")
	parallel := addParallelFlag(fs, "per-campaign mutant workers")
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
	st, err := cf.open()
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Store:       st,
		Workers:     *workers,
		QueueDepth:  *queue,
		Parallelism: *parallel,
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
		cfg.Logf = stderrLogf
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
	ln, err := net.Listen("tcp", string(*af))
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *af, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	// The signal watcher ends with the command: after a drain it lets
	// Serve's caller return only once Shutdown has finished, and on a
	// Serve error it stops waiting for a signal that will never matter.
	served, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		select {
		case sig := <-sigs:
			signal.Stop(sigs)
			fmt.Fprintf(os.Stderr, "concat serve: %s received, draining (timeout %s)\n", sig, *drainTimeout)
			srv.Drain(*drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(ctx)
		case <-served:
		}
	}()
	fmt.Fprintf(w, "concat campaign service listening on http://%s\n", ln.Addr())
	err = httpSrv.Serve(ln)
	close(served)
	<-stopped
	if !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	return nil
}

// cmdSubmit posts one campaign to a running service. With -wait it blocks
// for the finished report, prints it, and applies the same exit-code
// contract as `concat mutate` (exit 2 on surviving mutants).
func cmdSubmit(fs *flag.FlagSet, args []string, w io.Writer) error {
	af := addAddrFlag(fs, "")
	tf := addTargetFlag(fs, "")
	methods := fs.String("methods", "", "comma-separated methods to mutate")
	xf := addIsolationFlags(fs)
	distributed := fs.Bool("distributed", false, "fan the campaign out to remote `concat work` processes")
	shards := fs.Int("shards", 0, "shard count for -distributed (0 = service default)")
	wait := fs.Bool("wait", false, "block until the campaign finishes and print its report")
	gf := addGenFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	component, err := tf.need()
	if err != nil {
		return err
	}
	if gf.seed == 0 {
		// omitempty drops a zero seed from the wire request, and the
		// service resolves an absent seed to 42.
		return usageError(fs.Name() + " cannot send -seed 0: the service reads seed 0 as its default 42")
	}
	body, err := json.Marshal(serve.Request{
		Component:   component,
		Methods:     splitMethods(*methods),
		Seed:        gf.seed,
		Expand:      gf.expand,
		Alt:         gf.alt,
		LoopBound:   gf.k,
		Isolate:     xf.isolate,
		Pool:        xf.pool,
		PoolSize:    xf.poolSize,
		Distributed: *distributed,
		Shards:      *shards,
	})
	if err != nil {
		return err
	}
	base := af.url()
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
	return checkSurvivors(final.Survivors)
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
func cmdStatus(fs *flag.FlagSet, args []string, w io.Writer) error {
	af := addAddrFlag(fs, "")
	id := fs.String("id", "", "campaign ID (default: list all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := af.url() + "/campaigns"
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
func cmdLoadgen(fs *flag.FlagSet, args []string, w io.Writer) error {
	af := addAddrFlag(fs, "")
	requests := fs.Int("requests", 100, "campaign submissions to complete")
	submitters := fs.Int("submitters", 4, "concurrent submission workers")
	subscribers := fs.Int("subscribers", 2, "concurrent /events stream consumers")
	tf := addTargetFlag(fs, "component each campaign mutates (default Account)")
	seed := fs.Int64("seed", 42, "campaign generation seed (fixed = warm store replays)")
	jsonOut := fs.String("json", "", "write the measurement as indented JSON to FILE (- = stdout)")
	quiet := fs.Bool("quiet", false, "suppress progress lines on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if tf.name == "" {
		tf.name = "Account"
	}
	cfg := loadgen.Config{
		BaseURL:     af.url(),
		Requests:    *requests,
		Submitters:  *submitters,
		Subscribers: *subscribers,
		Component:   tf.name,
		Seed:        *seed,
	}
	if !*quiet {
		cfg.Logf = stderrLogf
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
		dst := *jsonOut
		if dst == "-" {
			dst = ""
		}
		err := writeOut(dst, w, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		})
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
func cmdWork(fs *flag.FlagSet, args []string, w io.Writer) error {
	coordinator := fs.String("coordinator", "127.0.0.1:8437", "coordinator address (host:port or URL)")
	storeDir := fs.String("store-dir", "", "shared filesystem verdict store (default: the coordinator's /store mount)")
	parallel := addParallelFlag(fs, "per-shard mutant workers")
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
		Parallelism: *parallel,
		Poll:        *poll,
		IdleExit:    *idleExit,
	}
	if !*quiet {
		cfg.Logf = stderrLogf
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "concat work: %s received, stopping\n", sig)
			cancel()
		case <-ctx.Done(): // the worker returned on its own
		}
	}()
	fmt.Fprintf(w, "concat worker polling %s\n", base)
	n := serve.NewWorker(cfg).Run(ctx)
	fmt.Fprintf(w, "concat work: %d shard(s) completed\n", n)
	return nil
}
