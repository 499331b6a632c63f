// Package loadgen is the traffic harness for the campaign service: N
// concurrent submitters and M /events subscribers drive a live `concat
// serve` for a fixed request budget, measuring client-side throughput and
// latency quantiles per endpoint, verifying the 503 + Retry-After
// backpressure contract under queue saturation, and cross-checking the
// server's /metrics request counters against its own client-side counts —
// the two sides are built from the same label convention (obs.Labeled), so
// every (route, method, code) series the client produced must appear on the
// server with exactly the same delta.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"concat/internal/obs"
	"concat/internal/serve"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8437".
	BaseURL string `json:"baseUrl"`
	// Requests is the campaign-submission budget: the run ends once this
	// many submissions were accepted and reached a terminal state.
	Requests int `json:"requests"`
	// Submitters is the number of concurrent submission workers.
	Submitters int `json:"submitters"`
	// Subscribers is the number of concurrent /events consumers; each
	// streams accepted campaigns' NDJSON events to exhaustion.
	Subscribers int `json:"subscribers"`
	// Component and Seed shape the submitted campaigns. A fixed seed makes
	// every campaign after the first a warm verdict-store replay, so the
	// measured load is the service layer, not mutant execution.
	Component string `json:"component"`
	Seed      int64  `json:"seed"`
	// Logf, when non-nil, receives progress lines. Not serialized.
	Logf func(format string, a ...any) `json:"-"`
}

func (c *Config) setDefaults() {
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.Submitters <= 0 {
		c.Submitters = 4
	}
	if c.Subscribers < 0 {
		c.Subscribers = 0
	}
	if c.Component == "" {
		c.Component = "Account"
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

func (c *Config) logf(format string, a ...any) {
	if c.Logf != nil {
		c.Logf(format, a...)
	}
}

// EndpointStats is one endpoint's client-side latency summary. Quantiles
// are nearest-rank over every completed request.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	P50US    int64 `json:"p50Us"`
	P95US    int64 `json:"p95Us"`
	P99US    int64 `json:"p99Us"`
	MaxUS    int64 `json:"maxUs"`
}

// Backpressure summarizes the queue-saturation behaviour observed.
type Backpressure struct {
	// Rejected503 counts campaign submissions the server refused with 503.
	Rejected503 int64 `json:"rejected503"`
	// MissingRetryAfter counts 503 responses without a Retry-After header —
	// any nonzero value is a contract violation.
	MissingRetryAfter int64 `json:"missingRetryAfter"`
}

// CrossCheck reports the server-vs-client counter reconciliation.
type CrossCheck struct {
	// Series is how many (route, method, code) series were compared.
	Series int `json:"series"`
	// Agree is true when every compared series matched exactly.
	Agree bool `json:"agree"`
	// Mismatches lists any disagreeing series as "series: server=N client=M".
	Mismatches []string `json:"mismatches,omitempty"`
}

// Result is one load run's measurement, written as JSON by
// `concat loadgen -json`. The service's maintained benchmark is
// concatbench's service-open workload.
type Result struct {
	Config             Config                   `json:"config"`
	CPUs               int                      `json:"cpus"`
	GoVersion          string                   `json:"goVersion"`
	ServerVersion      string                   `json:"serverVersion"`
	WallSeconds        float64                  `json:"wallSeconds"`
	HTTPRequests       int64                    `json:"httpRequests"`
	RequestsPerSecond  float64                  `json:"requestsPerSecond"`
	CampaignsCompleted int64                    `json:"campaignsCompleted"`
	CampaignsFailed    int64                    `json:"campaignsFailed"`
	CampaignsPerSecond float64                  `json:"campaignsPerSecond"`
	EventBytes         int64                    `json:"eventBytes"`
	Endpoints          map[string]EndpointStats `json:"endpoints"`
	Backpressure       Backpressure             `json:"backpressure"`
	CrossCheck         CrossCheck               `json:"crossCheck"`
}

// recorder accumulates the client-side view of the run: per-series request
// counts keyed exactly like the server's concat_http_requests_total series,
// and latency samples per endpoint.
type recorder struct {
	mu      sync.Mutex
	counts  map[string]int64
	samples map[string][]int64
}

// seriesKey builds the full Prometheus series name for one response, using
// the same obs.Labeled convention the server middleware records with.
func seriesKey(route, method string, code int) string {
	labeled := obs.Labeled("http_requests",
		"route", route, "method", method, "code", fmt.Sprintf("%d", code))
	return "concat_http_requests_total" + strings.TrimPrefix(labeled, "http_requests")
}

func (r *recorder) record(route, method string, code int, d time.Duration) {
	ep := method + " " + route
	r.mu.Lock()
	r.counts[seriesKey(route, method, code)]++
	r.samples[ep] = append(r.samples[ep], d.Microseconds())
	r.mu.Unlock()
}

// quantileUS is the nearest-rank quantile of sorted microsecond samples.
func quantileUS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func (r *recorder) endpoints() (map[string]EndpointStats, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]EndpointStats, len(r.samples))
	var total int64
	for ep, samples := range r.samples {
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out[ep] = EndpointStats{
			Requests: int64(len(sorted)),
			P50US:    quantileUS(sorted, 0.50),
			P95US:    quantileUS(sorted, 0.95),
			P99US:    quantileUS(sorted, 0.99),
			MaxUS:    sorted[len(sorted)-1],
		}
		total += int64(len(sorted))
	}
	return out, total
}

// client wraps the HTTP work: every request lands in the recorder under its
// route pattern (the same label the server middleware uses).
type client struct {
	base string
	http *http.Client
	rec  *recorder
}

// do runs one request against path, recording it under route, and returns
// the status, body and headers.
func (c *client) do(method, route, path string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", "concat-loadgen/"+serve.Version)
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	c.rec.record(route, method, resp.StatusCode, time.Since(start))
	return resp.StatusCode, payload, resp.Header, nil
}

// scrape fetches and strictly parses /metrics. The scrape itself is
// recorded client-side like any other request, but the /metrics route is
// excluded from the cross-check: the middleware counts a scrape after its
// handler ran, so no scrape can observe itself.
func (c *client) scrape() (*Scrape, error) {
	code, body, _, err := c.do("GET", "/metrics", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	return ParseExposition(string(body))
}

// Run drives one load run against a live service and returns its
// measurement. The run is an error if the service misbehaves (malformed
// responses, campaigns that never finish); a failed cross-check is reported
// in the Result rather than as an error so callers can print the evidence.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	rec := &recorder{counts: map[string]int64{}, samples: map[string][]int64{}}
	cl := &client{base: strings.TrimSuffix(cfg.BaseURL, "/"), http: &http.Client{}, rec: rec}

	before, err := cl.scrape()
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run scrape: %w", err)
	}
	serverVersion := buildInfoVersion(before)

	var (
		claimed    atomic.Int64
		completed  atomic.Int64
		failed     atomic.Int64
		rejected   atomic.Int64
		noRetryHdr atomic.Int64
		eventBytes atomic.Int64
		errMu      sync.Mutex
		runErr     error
	)
	fail := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}
	events := make(chan string, cfg.Requests)

	body, err := json.Marshal(serve.Request{Component: cfg.Component, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var subWG sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for id := range events {
				code, payload, _, err := cl.do("GET", "/campaigns/{id}/events", "/campaigns/"+id+"/events", nil)
				if err != nil {
					fail(err)
					return
				}
				if code != http.StatusOK {
					fail(fmt.Errorf("events %s: HTTP %d", id, code))
					return
				}
				eventBytes.Add(int64(len(payload)))
			}
		}()
	}

	var genWG sync.WaitGroup
	for i := 0; i < cfg.Submitters; i++ {
		genWG.Add(1)
		go func() {
			defer genWG.Done()
			for {
				n := claimed.Add(1)
				if n > int64(cfg.Requests) {
					return
				}
				id, ok := submitOne(cl, body, &rejected, &noRetryHdr, fail)
				if !ok {
					return
				}
				if cfg.Subscribers > 0 {
					events <- id
				}
				switch waitTerminal(cl, id, fail) {
				case serve.StateDone:
					completed.Add(1)
				case "":
					return // error already recorded
				default:
					failed.Add(1)
				}
				if n%25 == 0 {
					cfg.logf("loadgen: %d/%d campaigns submitted", n, cfg.Requests)
				}
			}
		}()
	}
	genWG.Wait()
	close(events)
	subWG.Wait()
	wall := time.Since(start)
	errMu.Lock()
	err = runErr
	errMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}

	after, err := cl.scrape()
	if err != nil {
		return nil, fmt.Errorf("loadgen: post-run scrape: %w", err)
	}

	endpoints, totalHTTP := rec.endpoints()
	res := &Result{
		Config:             cfg,
		CPUs:               runtime.NumCPU(),
		GoVersion:          runtime.Version(),
		ServerVersion:      serverVersion,
		WallSeconds:        wall.Seconds(),
		HTTPRequests:       totalHTTP,
		RequestsPerSecond:  float64(totalHTTP) / wall.Seconds(),
		CampaignsCompleted: completed.Load(),
		CampaignsFailed:    failed.Load(),
		CampaignsPerSecond: float64(completed.Load()) / wall.Seconds(),
		EventBytes:         eventBytes.Load(),
		Endpoints:          endpoints,
		Backpressure: Backpressure{
			Rejected503:       rejected.Load(),
			MissingRetryAfter: noRetryHdr.Load(),
		},
		CrossCheck: crossCheck(before, after, rec),
	}
	return res, nil
}

// submitOne posts one campaign, riding out 503 backpressure, and returns
// the accepted job ID.
func submitOne(cl *client, body []byte, rejected, noRetryHdr *atomic.Int64, fail func(error)) (string, bool) {
	for {
		code, payload, hdr, err := cl.do("POST", "/campaigns", "/campaigns", body)
		if err != nil {
			fail(err)
			return "", false
		}
		switch code {
		case http.StatusAccepted:
			var st serve.Status
			if err := json.Unmarshal(payload, &st); err != nil || st.ID == "" {
				fail(fmt.Errorf("submit: bad 202 payload %q", payload))
				return "", false
			}
			return st.ID, true
		case http.StatusServiceUnavailable:
			rejected.Add(1)
			if hdr.Get("Retry-After") == "" {
				noRetryHdr.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		default:
			fail(fmt.Errorf("submit: HTTP %d: %s", code, payload))
			return "", false
		}
	}
}

// waitTerminal polls the campaign's status until it reaches a terminal
// state, which it returns ("" after a recorded error).
func waitTerminal(cl *client, id string, fail func(error)) string {
	for {
		code, payload, _, err := cl.do("GET", "/campaigns/{id}", "/campaigns/"+id, nil)
		if err != nil {
			fail(err)
			return ""
		}
		if code != http.StatusOK {
			fail(fmt.Errorf("status %s: HTTP %d: %s", id, code, payload))
			return ""
		}
		var st serve.Status
		if err := json.Unmarshal(payload, &st); err != nil {
			fail(fmt.Errorf("status %s: %v", id, err))
			return ""
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateQuarantined:
			return st.State
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// buildInfoVersion extracts the version label of the concat_build_info
// series from a scrape.
func buildInfoVersion(s *Scrape) string {
	for series := range s.Samples {
		if rest, ok := strings.CutPrefix(series, "concat_build_info{"); ok {
			if labels, _, err := parseLabels(rest); err == nil {
				return labels["version"]
			}
		}
	}
	return ""
}

// crossCheck reconciles the server's concat_http_requests_total deltas
// against the client's own counts, series by series. The /metrics route is
// excluded — the middleware counts a scrape only after its handler ran, so
// the before/after scrapes themselves can never reconcile.
func crossCheck(before, after *Scrape, rec *recorder) CrossCheck {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	series := map[string]bool{}
	for s := range rec.counts {
		series[s] = true
	}
	for s := range after.Samples {
		if strings.HasPrefix(s, "concat_http_requests_total{") {
			series[s] = true
		}
	}
	cc := CrossCheck{Agree: true}
	for s := range series {
		if strings.Contains(s, `route="/metrics"`) {
			continue
		}
		serverDelta := int64(after.Value(s) - before.Value(s))
		if clientCount := rec.counts[s]; serverDelta != clientCount {
			cc.Agree = false
			cc.Mismatches = append(cc.Mismatches,
				fmt.Sprintf("%s: server=%d client=%d", s, serverDelta, clientCount))
		}
		cc.Series++
	}
	sort.Strings(cc.Mismatches)
	return cc
}
