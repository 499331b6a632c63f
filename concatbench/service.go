package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/loadgen"
	"concat/internal/obs"
	"concat/internal/serve"
	"concat/internal/store"
	"concat/internal/tfm"
)

// The service-open load: an open loop at two constant rates, fixed here
// and never re-calibrated per run. lightRate sits well below the knee of a
// default server (one campaign worker) on a 2-CPU machine; heavyRate below
// it but busy. A verdict counts toward goodput when its report arrives
// within latencyLimit of its scheduled send time.
const (
	lightRate    = 4.0 // campaigns per second
	heavyRate    = 8.0 // campaigns per second
	lightShare   = 0.4 // share of the window spent in the light phase
	latencyLimit = 500 * time.Millisecond
	scrapeEvery  = 250 * time.Millisecond
	// lagLimit marks a run invalid when the generator's p99 lateness
	// exceeds it: the schedule, not the service, would then shape latency.
	lagLimit = 50 * time.Millisecond
)

// serviceComponents are the campaign subjects the load draws from.
var serviceComponents = []string{"Account", "OrderSystem"}

// plannedRequest is one scheduled campaign submission.
type plannedRequest struct {
	at        time.Duration // offset from the loop's start
	phase     string
	component string
	seed      int64
}

// warmSet is the small (component, seed) set the load repeats; the
// warm-up primes it, so those requests replay warm from the store.
func warmSet(seed int64) []plannedRequest {
	var out []plannedRequest
	for _, c := range serviceComponents {
		for k := int64(1); k <= 2; k++ {
			out = append(out, plannedRequest{component: c, seed: seed*1_000_000 + k})
		}
	}
	return out
}

// mixCycle fixes the load's proportions so the seed varies the inputs,
// never the mix: of every five requests two repeat the warm set (one
// Account, one OrderSystem pair) and three run OrderSystem cold. The
// latency distribution has one mode per kind of request; a random mix, or
// a median sitting between modes, would move with the draw rather than
// with the service.
var mixCycle = []struct {
	warm      bool
	component string
}{
	{true, "Account"}, {false, "OrderSystem"}, {false, "OrderSystem"}, {true, "OrderSystem"}, {false, "OrderSystem"},
}

// plan lays out the two phases' evenly spaced sends in the fixed mix; the
// seed picks which warm pair of the component repeats and the cold
// campaigns' seeds.
func plan(seed int64, light, heavy time.Duration) []plannedRequest {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7f1ce))
	warm := warmSet(seed)
	var out []plannedRequest
	fresh := int64(0)
	add := func(phase string, from, span time.Duration, rate float64) {
		n := max(int(rate*span.Seconds()), 1)
		step := time.Duration(float64(time.Second) / rate)
		for i := 0; i < n; i++ {
			m := mixCycle[len(out)%len(mixCycle)]
			r := plannedRequest{at: from + time.Duration(i)*step, phase: phase, component: m.component}
			if m.warm {
				var pairs []plannedRequest
				for _, w := range warm {
					if w.component == m.component {
						pairs = append(pairs, w)
					}
				}
				r.seed = pairs[rng.IntN(len(pairs))].seed
			} else {
				fresh++
				r.seed = seed*1_000_000 + 1000 + fresh
			}
			out = append(out, r)
		}
	}
	add("light", 0, light, lightRate)
	add("heavy", light, heavy, heavyRate)
	return out
}

// service is one in-process server on loopback with a fresh filesystem
// store and journal.
type service struct {
	srv   *serve.Server
	hs    *http.Server
	base  string
	done  chan struct{}
	probe *storeProbe
}

func startService(dir string, tr *tracer) (*service, error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	j, err := serve.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Store: st, Journal: j}
	s := &service{done: make(chan struct{})}
	if tr != nil {
		s.probe = &storeProbe{RawBackend: st, tr: tr}
		cfg.Store = s.probe
	}
	s.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	for i := 0; ; i++ {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i > 500 {
			s.stop()
			return nil, fmt.Errorf("service never became ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop finishes every job, closes the listener and waits for the serving
// goroutine to exit.
func (s *service) stop() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves nothing to clean up beyond Close
	s.hs.Close()
	<-s.done
}

// reqResult is the client's record of one planned request.
type reqResult struct {
	plannedRequest
	lagMs, latencyMs, postMs float64
	rejected                 bool
	err                      error
	report                   []byte
}

// loadClient is the open-loop generator's HTTP side: at most nproc
// connections, and per-series counts keyed like the server's
// concat_http_requests_total.
type loadClient struct {
	base   string
	http   *http.Client
	mu     sync.Mutex
	counts map[string]int64
}

func newLoadClient(base string, conns int) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{
		base:   base,
		http:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		counts: map[string]int64{},
	}
}

func seriesKey(route, method string, code int) string {
	labeled := obs.Labeled("http_requests", "route", route, "method", method, "code", strconv.Itoa(code))
	return "concat_http_requests_total" + strings.TrimPrefix(labeled, "http_requests")
}

// do sends one request and returns status, body and the time from getting
// a connection to reading the body (the server's share of the wait).
func (c *loadClient) do(method, route, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	var gotConn time.Time
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	}))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.mu.Lock()
	c.counts[seriesKey(route, method, resp.StatusCode)]++
	c.mu.Unlock()
	return resp.StatusCode, payload, time.Since(gotConn), nil
}

// campaign submits one campaign and blocks on its report.
func (c *loadClient) campaign(tr *tracer, parent int64, component string, seed int64) (report []byte, postMs float64, rejected bool, err error) {
	body, _ := json.Marshal(serve.Request{Component: component, Seed: seed})
	sp := tr.start(parent, "serve.post")
	code, payload, d, err := c.do("POST", "/campaigns", "/campaigns", body)
	sp.end()
	if err != nil {
		return nil, 0, false, err
	}
	postMs = ms(d)
	if code == http.StatusServiceUnavailable {
		return nil, postMs, true, nil
	}
	if code != http.StatusAccepted {
		return nil, postMs, false, fmt.Errorf("POST /campaigns: HTTP %d: %s", code, payload)
	}
	var st serve.Status
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, postMs, false, err
	}
	sp = tr.start(parent, "serve.report")
	code, payload, _, err = c.do("GET", "/campaigns/{id}/report", "/campaigns/"+st.ID+"/report", nil)
	sp.end()
	if err != nil {
		return nil, postMs, false, err
	}
	if code != http.StatusOK {
		return nil, postMs, false, fmt.Errorf("GET report %s: HTTP %d: %s", st.ID, code, payload)
	}
	return payload, postMs, false, nil
}

// scrapeSample is one /metrics scrape.
type scrapeSample struct {
	ms, bytes, series, queueAgeMs float64
}

func scrape(c *http.Client, base string) (*loadgen.Scrape, scrapeSample, error) {
	t0 := time.Now()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, scrapeSample{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, scrapeSample{}, err
	}
	sc, err := loadgen.ParseExposition(string(body))
	if err != nil {
		return nil, scrapeSample{}, err
	}
	return sc, scrapeSample{
		ms: ms(d), bytes: float64(len(body)), series: float64(len(sc.Samples)),
		queueAgeMs: sc.Value("concat_queue_oldest_age_seconds") * 1000,
	}, nil
}

// loadRun is one server's measured open-loop run.
type loadRun struct {
	setupS  float64
	results []reqResult
	scrapes []scrapeSample
	probe   *storeProbe
}

// runLoad starts a fresh server (setupReps times, keeping the last),
// primes the warm set, then plays the schedule while scraping /metrics,
// and reconciles the server's request counters with the client's.
func runLoad(e *env, o *outcome, dir string, tr *tracer, light, heavy time.Duration) (*loadRun, error) {
	lr := &loadRun{}
	var setups []float64
	var svc *service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		var err error
		if svc, err = startService(filepath.Join(dir, fmt.Sprintf("server-%d", i)), tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()
	lr.probe = svc.probe
	cl := newLoadClient(svc.base, runtime.NumCPU())
	defer cl.http.CloseIdleConnections()
	t0 := time.Now()
	for _, w := range warmSet(e.seed) {
		if _, _, rejected, err := cl.campaign(nil, 0, w.component, w.seed); err != nil || rejected {
			return nil, fmt.Errorf("warm-up campaign %s/%d: rejected=%v err=%v", w.component, w.seed, rejected, err)
		}
	}
	lr.setupS = median(setups) + time.Since(t0).Seconds()
	cl.mu.Lock()
	clear(cl.counts) // reconcile the window only
	cl.mu.Unlock()

	scrapeTr := &http.Transport{MaxConnsPerHost: 1}
	scraper := &http.Client{Transport: scrapeTr, Timeout: 30 * time.Second}
	defer scrapeTr.CloseIdleConnections()
	before, _, err := scrape(scraper, svc.base)
	if err != nil {
		return nil, err
	}
	if svc.probe != nil {
		svc.probe.reset() // per-layer store numbers cover the window only
	}

	reqs := plan(e.seed, light, heavy)
	lr.results = make([]reqResult, len(reqs))
	stopScrape := make(chan struct{})
	var scrapeErr error
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				_, s, err := scrape(scraper, svc.base)
				if err != nil {
					scrapeErr = err
					return
				}
				lr.scrapes = append(lr.scrapes, s)
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.at)))
		wg.Add(1)
		go func(i int, r plannedRequest) {
			defer wg.Done()
			due := start.Add(r.at)
			res := reqResult{plannedRequest: r, lagMs: ms(time.Since(due))}
			op := tr.startAt(0, "bench.request", due)
			res.report, res.postMs, res.rejected, res.err = cl.campaign(tr, op.ID(), r.component, r.seed)
			res.latencyMs = ms(op.end())
			if tr == nil {
				res.latencyMs = ms(time.Since(due))
			}
			lr.results[i] = res
		}(i, r)
	}
	wg.Wait()
	close(stopScrape)
	swg.Wait()
	if scrapeErr != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", scrapeErr)
	}
	after, _, err := scrape(scraper, svc.base)
	if err != nil {
		return nil, err
	}
	reconcile(o, before, after, cl)
	return lr, nil
}

// reconcile checks the server's concat_http_requests_total deltas over the
// window against the client's own counts, series by series; the scraper's
// /metrics requests are excluded.
func reconcile(o *outcome, before, after *loadgen.Scrape, cl *loadClient) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	series := map[string]bool{}
	for s := range cl.counts {
		series[s] = true
	}
	for s := range after.Samples {
		if strings.HasPrefix(s, "concat_http_requests_total{") {
			series[s] = true
		}
	}
	for s := range series {
		if strings.Contains(s, `route="/metrics"`) {
			continue
		}
		if server := int64(after.Value(s) - before.Value(s)); server != cl.counts[s] {
			o.problem("request counters disagree on %s: server %d, client %d", s, server, cl.counts[s])
		}
	}
}

// expectedReport renders what the service must answer for (component,
// seed), computed in process through core.MutationRunOpts exactly as the
// service's local campaign path lays it out.
func expectedReport(component string, seed int64) ([]byte, error) {
	t, err := core.LookupTarget(component)
	if err != nil {
		return nil, err
	}
	gen := serve.Request{Component: component, Seed: seed}
	suite, err := t.New(nil).GenerateSuite(genOptions(gen))
	if err != nil {
		return nil, err
	}
	res, err := core.MutationRunOpts(component, suite, nil, nil, core.MutationOptions{})
	if err != nil {
		return nil, err
	}
	g, err := t.New(nil).Spec().TFM()
	if err != nil {
		return nil, err
	}
	art, err := cover.FromCampaign(g, suite, res)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := res.Tabulate().Render(&b); err != nil {
		return nil, err
	}
	b.WriteString(art.Suite.Summary())
	b.WriteString("\n")
	return []byte(b.String()), nil
}

// verifyReports checks every answered request against the in-process
// result for its (component, seed). Rejections and errors count as failed.
func verifyReports(o *outcome, results []reqResult) error {
	want := map[string][]byte{}
	for i, r := range results {
		if r.err != nil || r.rejected {
			o.verify(false, "request %d (%s/%d): rejected=%v err=%v", i, r.component, r.seed, r.rejected, r.err)
			continue
		}
		key := fmt.Sprintf("%s/%d", r.component, r.seed)
		exp, ok := want[key]
		if !ok {
			var err error
			if exp, err = expectedReport(r.component, r.seed); err != nil {
				return err
			}
			want[key] = exp
		}
		o.verify(bytes.Equal(r.report, exp), "request %d (%s): service report differs from the in-process result", i, key)
	}
	return nil
}

// phaseLatencies returns the latencies of one phase's answered requests.
func phaseLatencies(results []reqResult, phase string) []float64 {
	var out []float64
	for _, r := range results {
		if r.phase == phase && r.err == nil && !r.rejected {
			out = append(out, r.latencyMs)
		}
	}
	return out
}

// runService plays the open loop against a fresh server. A traced run
// plays half the window untraced and half traced on a second fresh
// server, so the overhead is the difference of their heavy-phase medians.
func runService(e *env) (*outcome, error) {
	o := newOutcome()
	light := time.Duration(float64(e.window) * lightShare)
	heavy := e.window - light
	if e.smoke {
		light, heavy = 300*time.Millisecond, 300*time.Millisecond
	}
	o.record["lightRate"] = lightRate
	o.record["heavyRate"] = heavyRate
	o.record["latencyLimitMs"] = ms(latencyLimit)
	o.record["connections"] = runtime.NumCPU()

	if !e.traced {
		lr, err := runLoad(e, o, filepath.Join(e.dir, "plain"), nil, light, heavy)
		if err != nil {
			return nil, err
		}
		if err := verifyReports(o, lr.results); err != nil {
			return nil, err
		}
		recordLag(o, lr)
		hv := phaseLatencies(lr.results, "heavy")
		o.metrics["setup_s"] = lr.setupS
		o.metrics["verdict_p50_ms"] = median(hv)
		o.metrics["verdicts_per_s"] = goodput(lr)
		return o, nil
	}

	plain, err := runLoad(e, o, filepath.Join(e.dir, "plain"), nil, light/2, heavy/2)
	if err != nil {
		return nil, err
	}
	traced, err := runLoad(e, o, filepath.Join(e.dir, "traced"), e.tr, light/2, heavy/2)
	if err != nil {
		return nil, err
	}
	for _, lr := range []*loadRun{plain, traced} {
		if err := verifyReports(o, lr.results); err != nil {
			return nil, err
		}
	}
	recordLag(o, traced)
	lightLat, heavyLat := phaseLatencies(plain.results, "light"), phaseLatencies(plain.results, "heavy")
	o.metrics["serve.light_p50_ms"] = median(lightLat)
	o.metrics["serve.light_p99_ms"] = quantile(lightLat, 0.99)
	o.metrics["serve.heavy_p99_ms"] = quantile(heavyLat, 0.99)
	o.metrics["verdict_p90_ms"] = quantile(heavyLat, 0.9)
	o.metrics["trace.overhead_ratio"] = ratio(median(phaseLatencies(traced.results, "heavy")), median(heavyLat)) - 1

	var posts []float64
	rejected := 0
	for _, r := range traced.results {
		if r.err == nil {
			posts = append(posts, r.postMs)
		}
		if r.rejected {
			rejected++
		}
	}
	o.metrics["serve.post_p50_ms"] = median(posts)
	o.metrics["serve.post_p99_ms"] = quantile(posts, 0.99)
	o.metrics["serve.rejected_503"] = float64(rejected)
	var scrapeMs, scrapeBytes, ages []float64
	for _, s := range traced.scrapes {
		scrapeMs = append(scrapeMs, s.ms)
		scrapeBytes = append(scrapeBytes, s.bytes)
		ages = append(ages, s.queueAgeMs)
	}
	o.metrics["serve.queue_age_max_ms"] = maxOf(ages)
	o.metrics["obs.scrape_p50_ms"] = median(scrapeMs)
	o.metrics["obs.scrape_max_ms"] = maxOf(scrapeMs)
	o.metrics["obs.scrape_bytes"] = median(scrapeBytes)
	if n := len(traced.scrapes); n > 0 {
		o.metrics["obs.series"] = traced.scrapes[n-1].series
	}
	// Store numbers are per answered campaign over the traced window.
	answered := float64(len(phaseLatencies(traced.results, "light")) + len(phaseLatencies(traced.results, "heavy")))
	p := traced.probe
	o.metrics["store.get_calls"] = ratio(p.gets.calls(), answered)
	o.metrics["store.get_ms"] = ratio(p.gets.ms(), answered)
	o.metrics["store.hits"] = ratio(float64(p.hits.Load()), answered)
	o.metrics["store.hit_ratio"] = ratio(float64(p.hits.Load()), p.gets.calls())
	o.metrics["store.put_calls"] = ratio(p.puts.calls(), answered)
	o.metrics["store.put_ms"] = ratio(p.puts.ms(), answered)
	o.metrics["canon.encode_ms"] = ratio(p.encodes.ms(), answered)
	return o, nil
}

// goodput is heavy-phase verdicts answered within the latency limit per
// second of the phase's wall time, from its first scheduled send to its
// last report received; rejections and failures are misses.
func goodput(lr *loadRun) float64 {
	n := 0
	var first, last time.Duration = -1, 0
	for _, r := range lr.results {
		if r.phase != "heavy" {
			continue
		}
		if first < 0 || r.at < first {
			first = r.at
		}
		if r.err == nil && !r.rejected {
			last = max(last, r.at+time.Duration(r.latencyMs*float64(time.Millisecond)))
			if r.latencyMs <= ms(latencyLimit) {
				n++
			}
		}
	}
	return ratio(float64(n), (last - first).Seconds())
}

// recordLag reports the generator's lateness and marks the run invalid in
// the machine record when the generator itself stalled.
func recordLag(o *outcome, lr *loadRun) {
	var lags []float64
	for _, r := range lr.results {
		lags = append(lags, r.lagMs)
	}
	p99 := quantile(lags, 0.99)
	o.metrics["gen.lag_p99_ms"] = p99
	o.record["genLagP99Ms"] = p99
	o.record["valid"] = p99 <= ms(lagLimit)
	if p99 > ms(lagLimit) {
		o.record["invalidReason"] = fmt.Sprintf("generator p99 lag %.1f ms exceeds %v", p99, lagLimit)
	}
}

// genOptions mirrors the service's resolution of a request's generation
// knobs (seed 0 → 42, alternative cap 4, loop bound 1).
func genOptions(r serve.Request) driver.Options {
	seed := r.Seed
	if seed == 0 {
		seed = 42
	}
	return driver.Options{Seed: seed, MaxAlternatives: 4, Enum: tfm.EnumOptions{LoopBound: 1}}
}
