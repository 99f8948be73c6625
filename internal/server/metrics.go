package server

import (
	"net/http"
	"strconv"
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

// appendProm appends the histogram in Prometheus text format (cumulative
// buckets, _sum and _count series) under the given metric name; labels
// is the rendered label set without braces.
func (h *latencyHist) appendProm(b []byte, name string, labels []byte) []byte {
	series := func(b []byte, suffix string) []byte {
		b = append(b, name...)
		b = append(b, suffix...)
		b = append(b, '{')
		return append(b, labels...)
	}
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		b = append(series(b, "_bucket"), `,le="`...)
		b = strconv.AppendFloat(b, bucketBound(i), 'g', -1, 64)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.overflow.Load()
	b = append(series(b, "_bucket"), `,le="+Inf"} `...)
	b = strconv.AppendInt(b, cum, 10)
	b = append(series(append(b, '\n'), "_sum"), "} "...)
	b = strconv.AppendFloat(b, float64(h.sumNanos.Load())/1e9, 'g', -1, 64)
	b = append(series(append(b, '\n'), "_count"), "} "...)
	b = strconv.AppendInt(b, h.count.Load(), 10)
	return append(b, '\n')
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

// scalarSeries are the per-template series rendered from each template's
// Stats reading; value appends the sample.
var scalarSeries = [...]struct {
	metric, help string
	value        func(b []byte, st *statsSnapshot) []byte
}{
	{"pqo_instances_total", "Query instances processed per template.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.Instances, 10) }},
	{"pqo_opt_calls_total", "Full optimizer calls (numOpt).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.OptCalls, 10) }},
	{"pqo_shared_opt_calls_total", "Instances served by joining another caller's in-flight optimizer call.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.SharedOptCalls, 10) }},
	{"pqo_read_path_hits_total", "Cache hits served by the lock-free snapshot read path.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.ReadPathHits, 10) }},
	{"pqo_write_path_hits_total", "Cache hits served by the second-chance check on the miss path.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.WritePathHits, 10) }},
	{"pqo_getplan_recosts_total", "Recost calls on the critical path (cost check).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.GetPlanRecosts, 10) }},
	{"pqo_env_pool_gets_total", "Pooled selectivity environments handed out.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.EnvPoolGets, 10) }},
	{"pqo_env_pool_reuses_total", "Pooled selectivity environments reused from the pool.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.EnvPoolReuses, 10) }},
	{"pqo_plans", "Plans currently cached.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, int64(st.CurPlans), 10) }},
	{"pqo_plan_cache_bytes", "Estimated plan-cache memory.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, int64(st.MemoryBytes), 10) }},
	{"pqo_bcg_violations_total", "BCG violations detected (Appendix G).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.Violations, 10) }},
	{"pqo_evictions_total", "Plans evicted to enforce the plan budget.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.Evictions, 10) }},
	{"pqo_degraded_total", "Decisions served without the λ guarantee (degraded fallback).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.DegradedDecisions, 10) }},
	{"pqo_read_path_errors_total", "Read-path faults absorbed by falling through to the optimizer path.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.ReadPathErrors, 10) }},
	{"pqo_breaker_state", "Optimizer circuit breaker state (0=closed, 1=open, 2=half-open).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, int64(st.BreakerState), 10) }},
	{"pqo_injected_faults_total", "Faults injected by the fault-injection harness (0 in production).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.InjectedFaults, 10) }},
	{"pqo_stats_epoch", "Current statistics epoch id (0 = epoch-less engine).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendUint(b, st.StatsEpoch, 10) }},
	{"pqo_cluster_epoch_observed", "Highest cluster statistics generation observed from the coordinator (0 = none).",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendUint(b, st.ClusterEpoch, 10) }},
	{"pqo_cluster_epoch_skew", "Generations this node's statistics epoch lags the observed cluster epoch.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendUint(b, st.EpochSkew, 10) }},
	{"pqo_epoch_skew_flagged_total", "Decisions served flagged because the node exceeded the cluster skew bound.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.EpochSkewFlagged, 10) }},
	{"pqo_lagging_instances", "Cached instance anchors awaiting revalidation: behind the template's current cost epoch.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.LaggingInstances, 10) }},
	{"pqo_revalidated_plans_total", "Anchors re-derived under a new statistics epoch by background revalidation.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.RevalidatedPlans, 10) }},
	{"pqo_epoch_lag_fallbacks_total", "Instances served flagged because their candidates lagged the template's current cost epoch.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.EpochLagFallbacks, 10) }},
	{"pqo_writer_wait_seconds_total", "Time writers waited to acquire this template's write-domain mutex.",
		func(b []byte, st *statsSnapshot) []byte {
			return strconv.AppendFloat(b, st.WriteLockWait.Seconds(), 'g', -1, 64)
		}},
	{"pqo_publish_total", "RCU snapshot publications for this template's write domain.",
		func(b []byte, st *statsSnapshot) []byte { return strconv.AppendInt(b, st.PublishTotal, 10) }},
}

// metricsScrape is what one /v1/metrics scrape renders: the registered
// templates, sorted by name, with one Stats reading each (every series of
// one template, pqo_epoch_lag_seconds included, comes from the same
// reading), and the server-wide gauges.
type metricsScrape struct {
	entries []*entry
	stats   []statsSnapshot
	domains int
	shed    int64
	lag     float64
}

// readMetrics takes the readings one scrape renders.
func (s *Server) readMetrics() *metricsScrape {
	vals := s.registered()
	m := &metricsScrape{entries: make([]*entry, len(vals)), domains: len(vals), shed: s.shedTotal.Load()}
	m.stats = make([]statsSnapshot, len(vals))
	for i, v := range vals {
		m.entries[i] = v.(*entry)
		m.stats[i] = m.entries[i].scr.Stats()
	}
	m.lag = s.epochLagSeconds(m.stats)
	return m
}

// handleMetrics renders the scrape into one buffer and writes it with its
// Content-Length. The buffer is sized from the previous scrape's body, so
// a steady scrape allocates it once; it is deliberately not pooled, as a
// pooled buffer of a megabyte or more would stay live between scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hint := s.scrapeBytes.Load()
	body := s.readMetrics().appendTo(make([]byte, 0, hint+hint/32))
	s.scrapeBytes.Store(int64(len(body)))
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// appendTo appends the scrape in Prometheus text exposition format.
func (m *metricsScrape) appendTo(b []byte) []byte {
	for _, sc := range scalarSeries {
		b = appendHeader(b, sc.metric, sc.help, promType(sc.metric))
		for i, e := range m.entries {
			b = append(b, sc.metric...)
			b = append(appendLabel(append(b, '{'), "template", e.name), "} "...)
			b = append(sc.value(b, &m.stats[i]), '\n')
		}
	}

	b = appendHeader(b, "pqo_breaker_transitions_total", "Circuit breaker state transitions by kind.", "counter")
	for i, e := range m.entries {
		st := &m.stats[i]
		for _, t := range [...]struct {
			kind  string
			count int64
		}{{"open", st.BreakerOpens}, {"half-open", st.BreakerHalfOpens}, {"close", st.BreakerCloses}} {
			b = append(b, "pqo_breaker_transitions_total{"...)
			b = appendLabel(b, "template", e.name)
			b = appendLabel(append(b, ','), "transition", t.kind)
			b = strconv.AppendInt(append(b, "} "...), t.count, 10)
			b = append(b, '\n')
		}
	}

	b = appendHeader(b, "pqo_write_domains", "Per-template RCU write domains attached to this server's directory.", "gauge")
	b = strconv.AppendInt(append(b, "pqo_write_domains "...), int64(m.domains), 10)
	b = append(b, '\n')
	b = appendHeader(b, "pqo_shed_total", "/plan requests shed with 429 because every in-flight slot stayed busy.", "counter")
	b = strconv.AppendInt(append(b, "pqo_shed_total "...), m.shed, 10)
	b = append(b, '\n')
	b = appendHeader(b, "pqo_epoch_lag_seconds", "Seconds since the last epoch advance while any plan-cache anchor still lags it (0 once revalidation drains).", "gauge")
	b = strconv.AppendFloat(append(b, "pqo_epoch_lag_seconds "...), m.lag, 'g', -1, 64)
	b = append(b, '\n')

	b = appendHeader(b, "pqo_check_latency_seconds", "/plan decision latency by serving mechanism: from after request decode and slot acquisition to the priced decision, excluding response encoding.", "histogram")

	var labels []byte
	for _, e := range m.entries {
		for i := range e.hist {
			labels = appendLabel(labels[:0], "template", e.name)
			labels = appendLabel(append(labels, ','), "via", checkLabels[i])
			b = e.hist[i].appendProm(b, "pqo_check_latency_seconds", labels)
		}
	}
	return b
}

// appendHeader appends a metric's HELP and TYPE lines.
func appendHeader(b []byte, metric, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, metric...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, metric...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// appendLabel appends key="value", the value Go-quoted.
func appendLabel(b []byte, key, value string) []byte {
	b = append(b, key...)
	b = append(b, '=')
	return strconv.AppendQuote(b, value)
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
