package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-recorded interval around a call into a layer. Name
// is "<layer>.<operation>"; the layer "bench" marks the benchmark's own op
// spans, which attribute nothing. Times are offsets from the run's start.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// activeSpan is an open span; end closes it. A nil *activeSpan is inert.
type activeSpan struct {
	t     *tracer
	id    int64
	par   int64
	name  string
	start time.Time
}

func (t *tracer) start(parent int64, name string) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &activeSpan{t: t, id: id, par: parent, name: name, start: time.Now()}
}

// startAt opens a span that began at a given time — an open-loop request
// starts when it was due, not when the generator got to it.
func (t *tracer) startAt(parent int64, name string, at time.Time) *activeSpan {
	a := t.start(parent, name)
	if a != nil {
		a.start = at
	}
	return a
}

func (a *activeSpan) ID() int64 {
	if a == nil {
		return 0
	}
	return a.id
}

// end closes the span and returns its duration.
func (a *activeSpan) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	s := span{
		ID: a.id, Parent: a.par, Run: a.t.run, Name: a.name,
		Start: ms(a.start.Sub(a.t.t0)), End: ms(now.Sub(a.t.t0)),
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// unattributed returns the share of the bench op spans' wall time that no
// layer span inside them covers: time the benchmark spent between calls
// into the system (and, for service requests, waiting on the generator or
// a client connection). Nested and concurrent layer spans count once, by
// the union of their intervals.
func unattributed(spans []span) float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var wall, covered float64
	for _, op := range spans {
		if !strings.HasPrefix(op.Name, "bench.") || op.Parent != 0 {
			continue
		}
		wall += op.End - op.Start
		var ivs [][2]float64
		var walk func(id int64)
		walk = func(id int64) {
			for _, c := range children[id] {
				if !strings.HasPrefix(c.Name, "bench.") {
					ivs = append(ivs, [2]float64{max(c.Start, op.Start), min(c.End, op.End)})
				}
				walk(c.ID)
			}
		}
		walk(op.ID)
		covered += unionLength(ivs)
	}
	if wall <= 0 {
		return 0
	}
	return (wall - covered) / wall
}

func unionLength(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE float64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
			continue
		}
		curE = max(curE, iv[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeNDJSON writes the header (the machine record and the metric-to-layer
// map) as the first line, then one span per line in start order.
func writeNDJSON(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
