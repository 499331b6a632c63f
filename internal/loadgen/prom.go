// Strict parsing of the Prometheus text exposition format (version 0.0.4),
// as served by `concat serve` on /metrics. The parser is deliberately
// unforgiving — the loadgen harness and the CI smoke use it to prove the
// service's exposition output round-trips through a real consumer, so any
// malformed HELP/TYPE line, unbalanced label brace or unparseable value is
// an error, not a skip.

package loadgen

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Scrape is one parsed /metrics exposition: every sample keyed by its full
// series name (family plus sorted label set, exactly as rendered), plus the
// declared TYPE of every family.
type Scrape struct {
	Samples map[string]float64
	Types   map[string]string
}

// Value returns the sample's value, or 0 for an absent series (a counter
// never incremented is legitimately absent from the exposition).
func (s *Scrape) Value(series string) float64 { return s.Samples[series] }

// promKinds are the metric kinds the service emits.
var promKinds = map[string]bool{"counter": true, "gauge": true, "histogram": true}

// sampleFamily strips a histogram sample's _bucket/_sum/_count suffix to
// recover its family name.
func sampleFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suf); ok {
			return f
		}
	}
	return name
}

// isLabelName reports whether s is a valid label name: [a-zA-Z_][a-zA-Z0-9_]*.
func isLabelName(s string) bool {
	for i, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return s != ""
}

// parseLabels reads a label set from just after its opening brace:
// name="value" pairs separated by commas, values carrying the exposition
// escapes \\, \" and \n, up to the closing brace. It returns the labels
// and the text after the brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		if rest, ok := strings.CutPrefix(s, "}"); ok {
			return labels, rest, nil
		}
		eq := strings.Index(s, `="`)
		if eq < 0 || !isLabelName(s[:eq]) {
			return nil, "", fmt.Errorf("malformed label set")
		}
		name := s[:eq]
		s = s[eq+2:]
		var v strings.Builder
		end := 0
		for ; end < len(s) && s[end] != '"'; end++ {
			c := s[end]
			if c == '\\' && end+1 < len(s) {
				end++
				switch c = s[end]; c {
				case 'n':
					c = '\n'
				case '\\', '"':
				default:
					return nil, "", fmt.Errorf("bad escape in label %s", name)
				}
			}
			v.WriteByte(c)
		}
		if end == len(s) {
			return nil, "", fmt.Errorf("unterminated value of label %s", name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("label %s repeated", name)
		}
		labels[name] = v.String()
		s = s[end+1:]
		if rest, ok := strings.CutPrefix(s, ","); ok {
			s = rest
		} else if !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("malformed label set")
		}
	}
}

// ParseExposition parses a /metrics body, enforcing the structural
// invariants of the text format: HELP lines carry a docstring, TYPE lines a
// known kind, no family has a second HELP or TYPE line, every sample's
// family was declared by a TYPE line, every label set is well formed, and
// no series appears twice.
func ParseExposition(body string) (*Scrape, error) {
	scrape := &Scrape{Samples: map[string]float64{}, Types: map[string]string{}}
	helped := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			return nil, fmt.Errorf("metrics line %d: blank line", lineNo)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				return nil, fmt.Errorf("metrics line %d: HELP without docstring: %q", lineNo, line)
			}
			if helped[fields[0]] {
				return nil, fmt.Errorf("metrics line %d: second HELP for family %s", lineNo, fields[0])
			}
			helped[fields[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				return nil, fmt.Errorf("metrics line %d: malformed TYPE: %q", lineNo, line)
			}
			family, kind := fields[0], fields[1]
			if !promKinds[kind] {
				return nil, fmt.Errorf("metrics line %d: unknown kind %q", lineNo, kind)
			}
			if prev, ok := scrape.Types[family]; ok {
				return nil, fmt.Errorf("metrics line %d: second TYPE for family %s (%s, then %s)", lineNo, family, prev, kind)
			}
			scrape.Types[family] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ \t"); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			var err error
			if _, rest, err = parseLabels(rest[1:]); err != nil {
				return nil, fmt.Errorf("metrics line %d: %s: %w", lineNo, name, err)
			}
		}
		series := line[:len(line)-len(rest)]
		valueText := strings.TrimLeft(rest, " \t")
		if name == "" || valueText == "" || len(valueText) == len(rest) || strings.ContainsAny(valueText, " \t") {
			return nil, fmt.Errorf("metrics line %d: malformed sample line %q", lineNo, line)
		}
		if _, ok := scrape.Types[sampleFamily(name)]; !ok {
			return nil, fmt.Errorf("metrics line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		v, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value %q: %v", lineNo, valueText, err)
		}
		if _, dup := scrape.Samples[series]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate series %s", lineNo, series)
		}
		scrape.Samples[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scanning metrics body: %w", err)
	}
	if len(scrape.Samples) == 0 {
		return nil, fmt.Errorf("metrics body contains no samples")
	}
	return scrape, nil
}
