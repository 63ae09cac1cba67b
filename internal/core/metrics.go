package core

import (
	"time"

	"bilsh/internal/metrics"
)

// Process-wide observability for the hot path. Every query answered by
// Query, QueryPlan or QueryBatch aggregates its QueryStats into the default
// metrics registry so a running server (GET /metrics) or an experiment
// run (bilsh exp -metrics) can see where time goes without any per-call
// plumbing. All instruments are resolved once at package init; the
// per-query cost is a handful of atomic adds.
//
// The four stages mirror the pipeline the paper times in Section V:
//
//	route  — level-1 RP-tree (or k-means) descent to a group
//	probe  — p-stable projections, lattice decoding, probe generation
//	scan   — bucket lookups and candidate-set union (short-list gather)
//	rank   — exact distances over the short list and the top-k merge
//
// docs/metrics.md is the catalogue of every name exported here.
var (
	metQueries = metrics.Default().Counter(
		"bilsh_core_queries_total", "Queries answered (single and batch paths).")
	metBatches = metrics.Default().Counter(
		"bilsh_core_batches_total", "QueryBatch calls.")
	metCandLists = metrics.Default().Counter(
		"bilsh_core_candidate_lists_total", "CandidateList calls (external short-list engines).")
	metInserts = metrics.Default().Counter(
		"bilsh_core_inserts_total", "Successful Insert calls.")
	metDeletes = metrics.Default().Counter(
		"bilsh_core_deletes_total", "Delete calls that tombstoned a live id.")
	metDeleteMisses = metrics.Default().Counter(
		"bilsh_core_delete_misses_total", "Delete calls for ids that were absent or already dead.")
	metCompacts = metrics.Default().Counter(
		"bilsh_core_compactions_total", "Successful Compact calls.")
	metCompactErrors = metrics.Default().Counter(
		"bilsh_core_compaction_errors_total", "Compact calls that returned an error.")
	metSeals = metrics.Default().Counter(
		"bilsh_core_memtable_seals_total", "Memtable seals into frozen overlay segments.")
	metEpoch = metrics.Default().Gauge(
		"bilsh_core_snapshot_epoch", "Current snapshot epoch (monotone across publications).")
	metHierarchyClimbs = metrics.Default().Counter(
		"bilsh_core_hierarchy_climbs_total", "Queries that climbed above hierarchy level 0.")

	metQuerySeconds = metrics.Default().Histogram(
		"bilsh_core_query_seconds", "End-to-end per-query latency.", metrics.DefLatencyBuckets)
	metStageRoute = stageHist("route")
	metStageProbe = stageHist("probe")
	metStageScan  = stageHist("scan")
	metStageRank  = stageHist("rank")

	metCandidates = metrics.Default().Histogram(
		"bilsh_core_query_candidates", "Distinct short-list candidates per query (|A(v)|).",
		metrics.DefCountBuckets)
	metScanned = metrics.Default().Histogram(
		"bilsh_core_query_scanned", "Bucket entries scanned per query before deduplication.",
		metrics.DefCountBuckets)
	metProbes = metrics.Default().Histogram(
		"bilsh_core_query_probes", "Bucket lookups per query.", metrics.DefCountBuckets)

	metInsertSeconds = metrics.Default().Histogram(
		"bilsh_core_insert_seconds", "Insert latency.", metrics.DefLatencyBuckets)
	metCompactSeconds = metrics.Default().Histogram(
		"bilsh_core_compact_seconds", "Compact latency.", metrics.DefLatencyBuckets)

	// Adaptive-plan instruments (see docs/adaptive.md). Every query, batch
	// queries included, runs under a plan — the default plan resolves to
	// the built budgets — so the resolved-tables histogram shows the live
	// budget mix, and the early-termination counter how often the plateau
	// policy saved work.
	metAdaptiveEarlyTerm = metrics.Default().Counter(
		"bilsh_adaptive_early_terminations_total",
		"Queries whose probe loop stopped before the resolved budget (StableProbes or MaxCandidates trigger).")
	metAdaptiveResolvedTables = metrics.Default().Histogram(
		"bilsh_adaptive_resolved_tables",
		"Table budget each query's plan resolved to (defaults, overrides and TargetRecall SLOs combined).",
		metrics.DefCountBuckets)
)

func stageHist(stage string) *metrics.Histogram {
	return metrics.Default().Histogram(
		"bilsh_core_stage_seconds",
		"Per-query time spent in each pipeline stage (route, probe, scan, rank).",
		metrics.DefLatencyBuckets, metrics.L("stage", stage))
}

// recordQuery aggregates one answered query.
func recordQuery(st *QueryStats, total time.Duration) {
	metQueries.Inc()
	metQuerySeconds.Observe(total.Seconds())
	recordStages(st)
}

// recordPlan aggregates the plan-level record of one answered query.
func recordPlan(ps *PlanStats) {
	metAdaptiveResolvedTables.Observe(float64(ps.ResolvedTables))
	if ps.TerminatedEarly {
		metAdaptiveEarlyTerm.Inc()
	}
}

// recordStages aggregates the stage timings and work counts of one
// gathered (and possibly ranked) query.
func recordStages(st *QueryStats) {
	metStageRoute.Observe(st.Timings.Route.Seconds())
	metStageProbe.Observe(st.Timings.Probe.Seconds())
	metStageScan.Observe(st.Timings.Scan.Seconds())
	if st.Timings.Rank > 0 {
		metStageRank.Observe(st.Timings.Rank.Seconds())
	}
	metCandidates.Observe(float64(st.Candidates))
	metScanned.Observe(float64(st.Scanned))
	metProbes.Observe(float64(st.Probes))
	if st.HierarchyLevel > 0 {
		metHierarchyClimbs.Inc()
	}
}
