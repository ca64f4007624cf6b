package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Help text for every metric family the tools register. The exposition
// writer emits these as "# HELP" lines, the README's metric inventory is
// generated from them, and the registry hygiene test fails when a family
// shows up here without help or in the code without an entry — keeping
// the three views of the metric surface from drifting apart.

// metricKind is the Prometheus exposition kind of a family, for the
// generated inventory. It mirrors the kind WritePrometheus emits.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
	kindSummary   metricKind = "summary"
)

// metricHelp describes one metric family.
type metricHelp struct {
	Kind metricKind
	Help string
}

// helpText maps every known metric family name to its kind and help
// string. Keep entries sorted by name; the inventory is generated in
// this order.
var helpText = map[string]metricHelp{
	"mcchecker_analysis_degraded_total": {kindCounter,
		"Analyses that produced a degraded report (salvaged prefix or upstream loss notes)."},
	"mcchecker_analysis_epochs_total": {kindCounter,
		"Access epochs extracted and checked by the analyzer."},
	"mcchecker_analysis_events_total": {kindCounter,
		"Trace events consumed by the analysis pipeline."},
	"mcchecker_analysis_regions_total": {kindCounter,
		"Concurrent regions examined by the cross-process detector."},
	"mcchecker_analysis_salvage_retries_total": {kindCounter,
		"Salvage attempts that failed and were retried at an earlier synchronization cut."},
	"mcchecker_analysis_violations_total": {kindCounter,
		"Memory consistency violations reported, each distinct violation of a report once."},
	"mcchecker_explore_distinct_violations": {kindGauge,
		"Distinct violation signatures found across an exploration sweep."},
	"mcchecker_explore_failures_total": {kindCounter,
		"Schedule runs that failed to execute or analyze during exploration."},
	"mcchecker_explore_minimize_runs_total": {kindCounter,
		"Extra program runs spent minimizing violating schedules (ddmin)."},
	"mcchecker_explore_schedules_total": {kindCounter,
		"Schedules executed by the exploration sweep."},
	"mcchecker_explore_violating_total": {kindCounter,
		"Schedules whose run produced at least one violation."},
	"mcchecker_faults_injected_total": {kindCounter,
		"Faults injected by the simulator, labeled by kind."},
	"mcchecker_phase_seconds": {kindSummary,
		"Wall-clock seconds spent per named pipeline phase."},
	"mcchecker_pipeline_decode_events_per_sec": {kindGauge,
		"Decode throughput of the most recent trace read, in events per second."},
	"mcchecker_pipeline_decode_pool_hits_total": {kindCounter,
		"Trace reads (directory or uploads) whose one decode context came from the pool."},
	"mcchecker_pipeline_decode_pool_misses_total": {kindCounter,
		"Trace reads (directory or uploads) that allocated a fresh decode context."},
	"mcchecker_pipeline_sink_pool_hits_total": {kindCounter,
		"Event-sink slab pool hits."},
	"mcchecker_pipeline_sink_pool_misses_total": {kindCounter,
		"Event-sink slab pool misses (fresh allocations)."},
	"mcchecker_profiler_events_total": {kindCounter,
		"Events observed by the online profiler, per rank."},
	"mcchecker_profiler_rank_events": {kindGauge,
		"Events currently attributed to each rank by the online profiler."},
	"mcchecker_profiler_relevance_total": {kindCounter,
		"Profiler relevance-filter decisions, labeled hit (kept) or miss (discarded)."},
	"mcchecker_serve_inflight_jobs": {kindGauge,
		"Jobs admitted by the serve daemon and not yet in a terminal state."},
	"mcchecker_serve_job_latency_us": {kindHistogram,
		"Submission-to-terminal latency of serve jobs, in microseconds (log2 buckets)."},
	"mcchecker_serve_jobs_submitted_total": {kindCounter,
		"Jobs admitted by the serve daemon."},
	"mcchecker_serve_jobs_total": {kindCounter,
		"Serve jobs reaching a terminal state, labeled by result (done, degraded, failed)."},
	"mcchecker_serve_panics_recovered_total": {kindCounter,
		"Analysis panics the serve daemon recovered into degraded reports."},
	"mcchecker_serve_queue_depth": {kindGauge,
		"Jobs sitting in the serve daemon's run queue."},
	"mcchecker_serve_shed_total": {kindCounter,
		"Submissions shed by admission control because the queue budget was exhausted."},
	"mcchecker_sim_collectives_total": {kindCounter,
		"Collective operations executed by the simulator, per rank."},
	"mcchecker_sim_epochs_total": {kindCounter,
		"Synchronization epochs opened and closed by the simulator, labeled by mode."},
	"mcchecker_sim_messages_total": {kindCounter,
		"Point-to-point messages through the simulator, per rank, labeled by direction."},
	"mcchecker_sim_rank_failures_total": {kindCounter,
		"Simulated rank deaths: injected crashes and the failures they cascade to."},
	"mcchecker_sim_rma_ops_total": {kindCounter,
		"RMA operations issued in the simulator, labeled deferred (queued per rank) or applied."},
	"mcchecker_static_diagnostics_total": {kindCounter,
		"Diagnostics emitted by the static epoch-state checker, labeled by rule."},
	"mcchecker_static_files_parsed_total": {kindCounter,
		"Source files parsed by the static checker."},
	"mcchecker_static_functions_checked_total": {kindCounter,
		"Function bodies checked by the static checker."},
	"mcchecker_static_functions_summarized_total": {kindCounter,
		"Function summaries computed for interprocedural static analysis."},
	"mcchecker_stream_boundaries_total": {kindCounter,
		"Global synchronization boundaries detected by the streaming checker, labeled clean (the slab is flushed) or unclean (the slab extends to the next boundary)."},
	"mcchecker_stream_peak_buffered_events": {kindGauge,
		"Peak number of events buffered by the streaming checker."},
	"mcchecker_stream_slab_events": {kindHistogram,
		"Trace events per streamed slab, re-injected events excluded (distribution)."},
	"mcchecker_stream_slabs_total": {kindCounter,
		"Slabs flushed by the streaming checker."},
	"mcchecker_trace_decoded_bytes_total": {kindCounter,
		"Bytes of every rank stream a trace reader decoded, trace files and uploads alike."},
	"mcchecker_trace_decoded_events_total": {kindCounter,
		"Events decoded from every rank stream a trace reader read, trace files and uploads alike."},
	"mcchecker_trace_encoded_bytes_total": {kindCounter,
		"Bytes of trace data encoded by writers."},
	"mcchecker_trace_encoded_events_total": {kindCounter,
		"Trace events encoded by writers."},
	"mcchecker_trace_salvaged_events_total": {kindCounter,
		"Events kept from the usable streams of each trace read that lost data, and from truncation-faulted ranks."},
	"mcchecker_trace_truncated_streams_total": {kindCounter,
		"Usable streams cut short in each trace read that lost data, and truncation-faulted ranks."},
}

// Help returns the help string for a metric family, or "" when the
// family is unknown.
func Help(name string) string {
	return helpText[name].Help
}

// HelpNames returns every family name with help text, sorted.
func HelpNames() []string {
	names := make([]string, 0, len(helpText))
	for name := range helpText {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// InventoryMarkdown renders the metric inventory as a GitHub-flavored
// markdown table, one row per family, sorted by name. The README embeds
// it between "<!-- metrics:begin -->" and "<!-- metrics:end -->"
// markers; a golden test regenerates the table and fails when the README
// copy is stale.
func InventoryMarkdown() string {
	var b strings.Builder
	b.WriteString("| Metric | Kind | Description |\n")
	b.WriteString("|---|---|---|\n")
	for _, name := range HelpNames() {
		h := helpText[name]
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, h.Kind, h.Help)
	}
	return b.String()
}
