package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// histBounds are the duration histogram's bucket upper bounds in
// microseconds (decimal decades from 100µs to 100s, plus +Inf).
var histBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// bucketLabel renders the bucket containing us.
func bucketLabel(us int64) string {
	for _, b := range histBounds {
		if us <= b {
			return fmt.Sprintf("<=%s", time.Duration(b*1000))
		}
	}
	return "+Inf"
}

// slowestN is how many labelled observations each slowest-tracker keeps.
const slowestN = 10

// EscapeLabelValue escapes a Prometheus label value per the text exposition
// format (version 0.0.4): backslash, double quote and line feed become \\,
// \" and \n. Everything else — including other control characters and
// non-ASCII — passes through unchanged, which is what the format specifies.
func EscapeLabelValue(v string) string {
	return labelEscaper.Replace(v)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labeled builds an internal metric name carrying a Prometheus label set:
// "family{k1=\"v1\",k2=\"v2\"}". Pairs alternate key, value; keys must
// already be valid Prometheus label names, values are escaped here. Pairs
// are sorted by key so the same logical series always yields the same
// string — the name doubles as the series identity in the counter map and
// in client-side cross-checks against a /metrics scrape.
func Labeled(family string, pairs ...string) string {
	if len(pairs)%2 != 0 {
		panic("obs: Labeled needs alternating key, value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	slices.SortFunc(kvs, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// hist is one duration histogram.
type hist struct {
	count   int64
	sumUS   int64
	minUS   int64
	maxUS   int64
	buckets map[string]int64
}

func (h *hist) observe(us int64) {
	if h.count == 0 || us < h.minUS {
		h.minUS = us
	}
	if us > h.maxUS {
		h.maxUS = us
	}
	h.count++
	h.sumUS += us
	h.buckets[bucketLabel(us)]++
}

// SlowEntry is one labelled observation in a slowest-N list.
type SlowEntry struct {
	Label string `json:"label"`
	DurUS int64  `json:"durUs"`
}

// Metrics accumulates counters, duration histograms and slowest-N
// trackers for a run or campaign. All methods are safe for concurrent use
// and safe on a nil receiver (the disabled metrics), mirroring Tracer.
//
// Like spans, metric *values* involving time are wall-clock and belong to
// the side channel only; counter values (outcomes, kills) are
// deterministic for a fixed seed.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*hist
	slowest  map[string][]SlowEntry
}

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		hists:    make(map[string]*hist),
		slowest:  make(map[string][]SlowEntry),
	}
}

// Inc adds delta to the named counter.
func (m *Metrics) Inc(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Observe records a duration in the named histogram. A non-empty label
// additionally feeds the histogram's slowest-N list (e.g. the slowest
// cases of a suite, by case ID).
func (m *Metrics) Observe(name, label string, d time.Duration) {
	if m == nil {
		return
	}
	us := d.Microseconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		h = &hist{buckets: make(map[string]int64)}
		m.hists[name] = h
	}
	h.observe(us)
	if label == "" {
		return
	}
	entries := append(m.slowest[name], SlowEntry{Label: label, DurUS: us})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].DurUS != entries[j].DurUS {
			return entries[i].DurUS > entries[j].DurUS
		}
		return entries[i].Label < entries[j].Label
	})
	if len(entries) > slowestN {
		entries = entries[:slowestN]
	}
	m.slowest[name] = entries
}

// HistogramSnapshot is a histogram's exportable form.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	SumUS   int64            `json:"sumUs"`
	MinUS   int64            `json:"minUs"`
	MaxUS   int64            `json:"maxUs"`
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot is the exportable aggregate: counters, duration histograms and
// slowest-N lists. JSON encoding is deterministic up to the time-derived
// values (map keys sort). Gauges are point-in-time values a caller adds to
// a snapshot before rendering it (Metrics itself keeps none), named like
// counters, plain or built with Labeled.
type Snapshot struct {
	Counters  map[string]int64             `json:"counters"`
	Gauges    map[string]float64           `json:"gauges,omitempty"`
	Durations map[string]HistogramSnapshot `json:"durations"`
	Slowest   map[string][]SlowEntry       `json:"slowest,omitempty"`
}

// Snapshot copies the current state into an exportable form.
func (m *Metrics) Snapshot() *Snapshot {
	snap := &Snapshot{
		Counters:  make(map[string]int64),
		Durations: make(map[string]HistogramSnapshot),
		Slowest:   make(map[string][]SlowEntry),
	}
	if m == nil {
		return snap
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		snap.Counters[k] = v
	}
	for k, h := range m.hists {
		buckets := make(map[string]int64, len(h.buckets))
		for b, n := range h.buckets {
			buckets[b] = n
		}
		snap.Durations[k] = HistogramSnapshot{
			Count: h.count, SumUS: h.sumUS, MinUS: h.minUS, MaxUS: h.maxUS,
			Buckets: buckets,
		}
	}
	for k, entries := range m.slowest {
		snap.Slowest[k] = append([]SlowEntry(nil), entries...)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("obs: encoding metrics snapshot: %w", err)
	}
	return nil
}
