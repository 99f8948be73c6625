package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/pqo"
)

// histBuckets is the number of exponential latency buckets: bucket i
// counts observations with latency ≤ 1µs·2^i, so the range spans 1µs to
// ~8.4s before the overflow bucket.
const histBuckets = 24

// latencyHist is a lock-free exponential-bucket latency histogram. All
// fields are atomics: request handlers observe concurrently, /metrics
// reads concurrently.
type latencyHist struct {
	counts   [histBuckets]atomic.Int64
	overflow atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNanos.Add(d.Nanoseconds())
	us := d.Microseconds()
	for i := 0; i < histBuckets; i++ {
		if us <= 1<<i {
			h.counts[i].Add(1)
			return
		}
	}
	h.overflow.Add(1)
}

// bucketBound returns bucket i's upper bound in seconds.
func bucketBound(i int) float64 { return float64(int64(1)<<i) / 1e6 }

// writeProm writes the histogram in Prometheus text format (cumulative
// buckets, _sum and _count series) under the given metric name and label
// set.
func (h *latencyHist) writeProm(w io.Writer, name, labels string) {
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, bucketBound(i), cum)
	}
	cum += h.overflow.Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

// checkLabels are the decision provenances a /plan request can resolve
// through, in the order their histograms are kept per template entry.
var checkLabels = [...]string{"optimizer", "selectivity-check", "cost-check", "shared", "degraded"}

const (
	histOptimizer = iota
	histSelectivity
	histCost
	histShared
	histDegraded
)

// writeMetrics renders every registered template's counters and latency
// histograms in Prometheus text exposition format. Each template's Stats
// are read exactly once per scrape: every series of one template,
// pqo_epoch_lag_seconds included, comes from the same reading.
func (s *Server) writeMetrics(w io.Writer) {
	entries := s.snapshotEntries()
	stats := make([]statsSnapshot, len(entries))
	for i, e := range entries {
		stats[i] = e.scr.Stats()
	}

	fmt.Fprintln(w, "# HELP pqo_instances_total Query instances processed per template.")
	fmt.Fprintln(w, "# TYPE pqo_instances_total counter")
	for i, e := range entries {
		fmt.Fprintf(w, "pqo_instances_total{template=%q} %d\n", e.name, stats[i].Instances)
	}

	type scalar struct {
		metric, help string
		value        func(st statsSnapshot) string
	}
	scalars := []scalar{
		{"pqo_opt_calls_total", "Full optimizer calls (numOpt).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.OptCalls) }},
		{"pqo_shared_opt_calls_total", "Instances served by joining another caller's in-flight optimizer call.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.SharedOptCalls) }},
		{"pqo_read_path_hits_total", "Cache hits served by the lock-free snapshot read path.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.ReadPathHits) }},
		{"pqo_write_path_hits_total", "Cache hits served by the second-chance check on the miss path.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.WritePathHits) }},
		{"pqo_getplan_recosts_total", "Recost calls on the critical path (cost check).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.GetPlanRecosts) }},
		{"pqo_recost_cache_hits_total", "Recost result cache hits.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.RecostCacheHits) }},
		{"pqo_recost_cache_misses_total", "Recost result cache misses.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.RecostCacheMisses) }},
		{"pqo_env_pool_gets_total", "Pooled selectivity environments handed out.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.EnvPoolGets) }},
		{"pqo_env_pool_reuses_total", "Pooled selectivity environments reused from the pool.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.EnvPoolReuses) }},
		{"pqo_plans", "Plans currently cached.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.CurPlans) }},
		{"pqo_plan_cache_bytes", "Estimated plan-cache memory.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.MemoryBytes) }},
		{"pqo_bcg_violations_total", "BCG violations detected (Appendix G).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.Violations) }},
		{"pqo_evictions_total", "Plans evicted to enforce the plan budget.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.Evictions) }},
		{"pqo_degraded_total", "Decisions served without the λ guarantee (degraded fallback).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.DegradedDecisions) }},
		{"pqo_read_path_errors_total", "Read-path faults absorbed by falling through to the optimizer path.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.ReadPathErrors) }},
		{"pqo_breaker_state", "Optimizer circuit breaker state (0=closed, 1=open, 2=half-open).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", int(st.BreakerState)) }},
		{"pqo_injected_faults_total", "Faults injected by the fault-injection harness (0 in production).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.InjectedFaults) }},
		{"pqo_stats_epoch", "Current statistics epoch id (0 = epoch-less engine).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.StatsEpoch) }},
		{"pqo_cluster_epoch_observed", "Highest cluster statistics generation observed from the coordinator (0 = none).",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.ClusterEpoch) }},
		{"pqo_cluster_epoch_skew", "Generations this node's statistics epoch lags the observed cluster epoch.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.EpochSkew) }},
		{"pqo_epoch_skew_flagged_total", "Decisions served flagged because the node exceeded the cluster skew bound.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.EpochSkewFlagged) }},
		{"pqo_lagging_instances", "Cached instance anchors awaiting revalidation: behind the template's current cost epoch.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.LaggingInstances) }},
		{"pqo_revalidated_plans_total", "Anchors re-derived under a new statistics epoch by background revalidation.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.RevalidatedPlans) }},
		{"pqo_epoch_lag_fallbacks_total", "Instances served flagged because their candidates lagged the template's current cost epoch.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.EpochLagFallbacks) }},
		{"pqo_writer_wait_seconds_total", "Time writers waited to acquire this template's write-domain mutex.",
			func(st statsSnapshot) string { return fmt.Sprintf("%g", st.WriteLockWait.Seconds()) }},
		{"pqo_publish_total", "RCU snapshot publications for this template's write domain.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.PublishTotal) }},
		{"pqo_publish_coalesced_total", "Publication marks absorbed into a batched flush instead of publishing their own snapshot.",
			func(st statsSnapshot) string { return fmt.Sprintf("%d", st.PublishCoalesced) }},
	}
	for _, sc := range scalars {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", sc.metric, sc.help, sc.metric, promType(sc.metric))
		for i, e := range entries {
			fmt.Fprintf(w, "%s{template=%q} %s\n", sc.metric, e.name, sc.value(stats[i]))
		}
	}

	fmt.Fprintln(w, "# HELP pqo_breaker_transitions_total Circuit breaker state transitions by kind.")
	fmt.Fprintln(w, "# TYPE pqo_breaker_transitions_total counter")
	for i, e := range entries {
		st := &stats[i]
		for _, t := range []struct {
			kind  string
			count int64
		}{{"open", st.BreakerOpens}, {"half-open", st.BreakerHalfOpens}, {"close", st.BreakerCloses}} {
			fmt.Fprintf(w, "pqo_breaker_transitions_total{template=%q,transition=%q} %d\n",
				e.name, t.kind, t.count)
		}
	}

	fmt.Fprintln(w, "# HELP pqo_write_domains Per-template RCU write domains attached to this server's directory.")
	fmt.Fprintln(w, "# TYPE pqo_write_domains gauge")
	fmt.Fprintf(w, "pqo_write_domains %d\n", s.dir.Len())

	fmt.Fprintln(w, "# HELP pqo_shed_total /plan requests shed with 429 because every in-flight slot stayed busy.")
	fmt.Fprintln(w, "# TYPE pqo_shed_total counter")
	fmt.Fprintf(w, "pqo_shed_total %d\n", s.shedTotal.Load())

	fmt.Fprintln(w, "# HELP pqo_epoch_lag_seconds Seconds since the last epoch advance while any plan-cache anchor still lags it (0 once revalidation drains).")
	fmt.Fprintln(w, "# TYPE pqo_epoch_lag_seconds gauge")
	fmt.Fprintf(w, "pqo_epoch_lag_seconds %g\n", s.epochLagSeconds(stats))

	fmt.Fprintln(w, "# HELP pqo_check_latency_seconds /plan decision latency by serving mechanism: from after request decode and slot acquisition to the priced decision, excluding response encoding.")
	fmt.Fprintln(w, "# TYPE pqo_check_latency_seconds histogram")
	for _, e := range entries {
		for i := range e.hist {
			labels := fmt.Sprintf("template=%q,via=%q", e.name, checkLabels[i])
			e.hist[i].writeProm(w, "pqo_check_latency_seconds", labels)
		}
	}
}

// statsSnapshot is the Stats type rendered by /metrics; aliased to keep
// the scalar table readable.
type statsSnapshot = pqo.Stats

func promType(metric string) string {
	if len(metric) > 6 && metric[len(metric)-6:] == "_total" {
		return "counter"
	}
	return "gauge"
}
