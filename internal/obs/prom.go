// Prometheus text-format rendering of a metrics snapshot: the live
// /metrics surface of the campaign service. The internal metric namespace
// ("case.outcome.pass", "mutant.kill-latency.IndVarBitNeg") translates into
// conventional Prometheus families — outcome and kill-reason counters
// become one family with a label, kill-latency histograms become one
// histogram family labelled by operator, and everything else maps
// mechanically. Output is sorted, so identical snapshots render identical
// bytes. WritePrometheus is the only code that writes exposition lines:
// the service adds its scrape-time values to a snapshot and renders that.

package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// promSanitize maps an internal metric name segment onto the Prometheus
// name charset [a-zA-Z0-9_]; a name already in it is returned as is.
func promSanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

// splitLabeled splits an obs.Labeled name ("family{k=\"v\",...}") into its
// family and its brace-enclosed label body. ok is false for plain names.
func splitLabeled(name string) (family, label string, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return "", "", false
	}
	return name[:i], name[i+1 : len(name)-1], true
}

// promDotted lists the dotted internal families whose last segment
// becomes a label: outcome and kill-reason counters, per-operator
// kill-latency histograms.
var promDotted = []struct{ prefix, family, label string }{
	{"case.outcome.", "case_outcome", "outcome"},
	{"mutant.kill.", "mutant_kills", "reason"},
	{"job.outcome.", "job_outcome", "state"},
	{"mutant.kill-latency.", "mutant_kill_latency", "operator"},
}

// promName maps one internal metric name to its family, ending in the
// kind's suffix ("_total", "_seconds" or none for a gauge), and its label
// body, empty for a plain series.
func promName(name, suffix string) (family, label string) {
	if fam, lbl, ok := splitLabeled(name); ok {
		return "concat_" + promSanitize(fam) + suffix, lbl
	}
	for _, d := range promDotted {
		if rest, ok := strings.CutPrefix(name, d.prefix); ok {
			return "concat_" + d.family + suffix, d.label + `="` + EscapeLabelValue(rest) + `"`
		}
	}
	return "concat_" + promSanitize(name) + suffix, ""
}

// promLE renders a microsecond bound as a Prometheus le= seconds value.
func promLE(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}

// joinLabels merges label fragments into a {...} selector, or "".
func joinLabels(labels ...string) string {
	var parts []string
	for _, l := range labels {
		if l != "" {
			parts = append(parts, l)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeHelp escapes a HELP line's docstring per the text exposition
// format: backslash and line feed become \\ and \n (quotes are not special
// in HELP text).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promHelp documents the known families; unknown families fall back to a
// generic line naming the family.
var promHelp = map[string]string{
	"concat_case_outcome_total":                  "Test-case outcomes by verdict across every run this process executed.",
	"concat_mutant_kills_total":                  "Mutants killed, by the oracle reason that caught them.",
	"concat_job_outcome_total":                   "Campaign-service jobs reaching a terminal state, by state.",
	"concat_mutant_kill_latency_seconds":         "Wall-clock time from mutant start to its killing verdict, by operator.",
	"concat_http_requests_total":                 "HTTP requests served, by route pattern, method and status code.",
	"concat_http_request_duration_seconds":       "HTTP request latency by route pattern and method.",
	"concat_store_get_duration_seconds":          "Verdict-store read-path latency as observed by the campaign service.",
	"concat_store_hits_total":                    "Verdict-store lookups served from the cache.",
	"concat_store_misses_total":                  "Verdict-store lookups that had to execute.",
	"concat_store_quarantined_total":             "Store entries quarantined for failing integrity.",
	"concat_shard_leases_total":                  "Distributed-campaign shard leases granted.",
	"concat_shard_reclaims_total":                "Shard leases reclaimed from wedged workers.",
	"concat_journal_replayed_total":              "Jobs replayed from the journal at startup.",
	"concat_journal_corrupt_total":               "Corrupt journal records quarantined at replay.",
	"concat_lease_reclaims_total":                "Job leases reclaimed from wedged attempts.",
	"concat_job_retries_total":                   "Job attempts retried after a crash or reclaim.",
	"concat_jobs_quarantined_total":              "Poison jobs parked after exhausting retries.",
	"concat_impact_kept_total":                   "Impact-analysis cases kept (replayed warm).",
	"concat_impact_rerun_total":                  "Impact-analysis cases re-executed.",
	"concat_impact_regenerated_total":            "Impact-analysis cases regenerated and executed.",
	"concat_build_info":                          "Build metadata; the value is always 1.",
	"concat_queue_depth":                         "Jobs occupying admission slots.",
	"concat_queue_oldest_age_seconds":            "Age of the oldest job waiting in the queue.",
	"concat_draining":                            "1 while the server drains toward shutdown.",
	"concat_http_in_flight":                      "HTTP requests currently being served.",
	"concat_workers":                             "Configured campaign workers.",
	"concat_workers_busy":                        "Workers currently executing a job.",
	"concat_events_subscribers":                  "Live /events NDJSON stream subscribers.",
	"concat_events_broadcast_lag_bytes":          "Worst trace bytes written but not yet consumed by a live subscriber.",
	"concat_jobs":                                "Jobs by lifecycle state.",
	"concat_campaign_transaction_coverage_ratio": "Per-campaign TFM transaction coverage, 0 to 1.",
}

// promFamilyHeader renders the HELP and TYPE header lines introducing one
// metric family, with the help text escaped for the exposition format.
func promFamilyHeader(family, kind string) string {
	help := promHelp[family]
	if help == "" {
		help = "Internal concat metric " + family + "."
	}
	return fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", family, escapeHelp(help), family, kind)
}

// promSeries is one series of a family: its internal name, which orders
// the series, and its rendered sample lines.
type promSeries struct {
	name, text string
}

// promFamily collects the series of one exposition family.
type promFamily struct {
	kind   string
	series []promSeries
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): every counter as a *_total family, every gauge
// under its own name, every duration histogram as a *_seconds histogram
// with cumulative le buckets. Families are emitted in sorted order, each
// with one HELP and one TYPE header followed by all of its series.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	families := make(map[string]*promFamily)
	add := func(family, kind, name, text string) {
		f := families[family]
		if f == nil {
			f = &promFamily{kind: kind}
			families[family] = f
		}
		f.series = append(f.series, promSeries{name, text})
	}
	for name, v := range s.Counters {
		family, label := promName(name, "_total")
		add(family, "counter", name, family+joinLabels(label)+" "+strconv.FormatInt(v, 10)+"\n")
	}
	for name, v := range s.Gauges {
		family, label := promName(name, "")
		add(family, "gauge", name, family+joinLabels(label)+" "+strconv.FormatFloat(v, 'g', -1, 64)+"\n")
	}
	for name, h := range s.Durations {
		family, label := promName(name, "_seconds")
		var b strings.Builder
		var cum int64
		for _, bound := range histBounds {
			cum += h.Buckets[bucketLabel(bound)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n",
				family, joinLabels(label, fmt.Sprintf("le=%q", promLE(bound))), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", family, joinLabels(label, `le="+Inf"`), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %s\n", family, joinLabels(label),
			strconv.FormatFloat(float64(h.SumUS)/1e6, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count%s %d\n", family, joinLabels(label), h.Count)
		add(family, "histogram", name, b.String())
	}

	names := make([]string, 0, len(families))
	for family := range families {
		names = append(names, family)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, family := range names {
		f := families[family]
		slices.SortFunc(f.series, func(a, b promSeries) int { return strings.Compare(a.name, b.name) })
		b.WriteString(promFamilyHeader(family, f.kind))
		for _, series := range f.series {
			b.WriteString(series.text)
		}
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("obs: writing prometheus metrics: %w", err)
	}
	return nil
}
