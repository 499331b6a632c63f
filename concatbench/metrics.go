package main

// metricDef names one reported metric. For per-layer metrics, Moves names
// the end-to-end metric and workload a change to that layer should move —
// the prediction a performance change is checked against.
type metricDef struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
}

// endToEnd are the user-visible metrics every untraced run reports. A
// verdict is the workload's product: a Table 2 campaign (table2-inproc), an
// impact re-verification with its encoded artifacts (impact-edit), or a
// service campaign report (service-open, heavy phase).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "verdict_p50_ms", Unit: "ms"},
	{Name: "verdicts_per_s", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

const (
	movesSetupTable2 = "setup_s @ table2-inproc"
	movesCampaign    = "verdict_p50_ms @ table2-inproc"
	movesInproc      = "verdict_p50_ms @ table2-inproc"
	movesPool        = "pool.campaign_ms @ table2-inproc (the pooled gate campaign; no end-to-end workload, see README)"
	movesImpact      = "verdict_p50_ms @ impact-edit"
	movesServeP50    = "verdict_p50_ms, verdicts_per_s @ service-open"
	movesServeTail   = "verdict_p90_ms (per layer) @ service-open"
	movesValidity    = "validity of every number above"
)

// perLayer are the metrics every traced run reports. A layer the workload
// leaves idle reports 0, which is itself the prediction for that workload.
var perLayer = []metricDef{
	{"tspec.load_ms", "ms", "tspec", movesImpact},
	{"tspec.diff_ms", "ms", "tspec", movesImpact},
	{"tspec.hash_ms", "ms", "tspec", movesImpact},
	{"tfm.enumerate_ms", "ms", "tfm", movesSetupTable2 + "; " + movesImpact},
	{"tfm.transactions", "count", "tfm", movesSetupTable2 + "; " + movesImpact},
	{"driver.generate_ms", "ms", "driver", movesSetupTable2 + "; " + movesImpact},
	{"driver.cases", "count", "driver", movesSetupTable2 + "; " + movesImpact},
	{"history.derive_ms", "ms", "history", movesSetupTable2},
	{"history.new_cases", "count", "history", movesSetupTable2},
	{"history.reused_cases", "count", "history", movesSetupTable2},
	{"mutation.enumerate_ms", "ms", "mutation", movesCampaign},
	{"mutation.mutants", "count", "mutation", movesCampaign},
	{"analysis.provisions", "count", "analysis", movesCampaign},
	{"analysis.per_mutant_ms", "ms", "analysis", movesCampaign},
	{"testexec.reference_ms", "ms", "testexec", movesInproc},
	{"testexec.case_us", "us", "testexec", movesInproc},
	{"testexec.harness_ratio", "ratio", "testexec", movesInproc},
	{"component.calls", "count", "component", movesInproc},
	{"component.call_ms", "ms", "component", movesInproc},
	{"component.instances", "count", "component", movesInproc},
	{"pool.spawned", "count", "pool", movesPool},
	{"pool.discarded", "count", "pool", movesPool},
	{"pool.batches", "count", "pool", movesPool},
	{"pool.redispatches", "count", "pool", movesPool},
	{"pool.recycles", "count", "pool", movesPool},
	{"pool.case_us", "us", "pool", movesPool},
	{"pool.campaign_ms", "ms", "pool", "isolation cost of one Table 2 campaign @ table2-inproc (no end-to-end workload, see README)"},
	{"store.get_calls", "count", "store", movesImpact + "; " + movesServeP50},
	{"store.get_ms", "ms", "store", movesServeP50},
	{"store.hits", "count", "store", movesServeP50},
	{"store.hit_ratio", "ratio", "store", movesServeP50},
	{"store.put_calls", "count", "store", movesImpact},
	{"store.put_ms", "ms", "store", movesImpact},
	{"canon.encode_ms", "ms", "canon", movesImpact},
	{"impact.kept", "count", "impact", movesImpact},
	{"impact.rerun", "count", "impact", movesImpact},
	{"impact.regenerated", "count", "impact", movesImpact},
	{"impact.encode_ms", "ms", "impact", movesImpact},
	{"cover.encode_ms", "ms", "cover", movesImpact},
	{"serve.post_p50_ms", "ms", "serve", movesServeP50},
	{"serve.post_p99_ms", "ms", "serve", movesServeTail},
	{"serve.rejected_503", "count", "serve", movesServeP50},
	{"serve.queue_age_max_ms", "ms", "serve", movesServeTail},
	{"serve.light_p50_ms", "ms", "serve", "light-phase latency @ service-open (below the knee)"},
	{"serve.light_p99_ms", "ms", "serve", "light-phase latency @ service-open (below the knee)"},
	{"serve.heavy_p99_ms", "ms", "serve", movesServeTail},
	{"obs.scrape_p50_ms", "ms", "obs", movesServeTail},
	{"obs.scrape_max_ms", "ms", "obs", movesServeTail},
	{"obs.scrape_bytes", "bytes", "obs", movesServeTail},
	{"obs.series", "count", "obs", movesServeTail},
	{"verdict_p90_ms", "ms", "verdict", "tail of the workload's verdicts, from its untraced ops; per layer because its run-to-run spread exceeds the largest end-to-end bound (README)"},
	{"gen.lag_p99_ms", "ms", "harness", movesValidity},
	{"trace.overhead_ratio", "ratio", "harness", movesValidity},
	{"unattributed_ratio", "ratio", "harness", movesValidity},
	{"failed_ratio", "ratio", "harness", movesValidity},
}
