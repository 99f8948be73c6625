package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/pqo"
)

// statsCountingEngine is a TPC-H template engine whose FaultReporter
// surface counts its calls: SCR.Stats makes exactly one per reading, so
// the count is the number of Stats readings taken of its template.
type statsCountingEngine struct {
	*pqo.TemplateEngine
	reads atomic.Int64
}

func (e *statsCountingEngine) InjectedFaults() int64 {
	e.reads.Add(1)
	return 0
}

// TestMetricsScrapeReadsStatsOnce pins the scrape's cost: one /v1/metrics
// scrape takes one Stats reading per registered template, and the
// epoch-lag gauge reuses those readings after an advance instead of
// taking its own.
func TestMetricsScrapeReadsStatsOnce(t *testing.T) {
	sys := pqo.NewSystem(pqo.TPCH(0.01), 3)
	s := New(Config{})
	engs := map[string]*statsCountingEngine{}
	for name, sql := range map[string]string{
		"q1": `SELECT * FROM lineitem, orders
		       WHERE lineitem.l_orderkey = orders.o_orderkey
		         AND lineitem.l_shipdate <= ?0
		         AND orders.o_totalprice >= ?1`,
		// The constant predicate puts orders.o_orderdate in q3's
		// footprint, so a resample leaves its anchors lagging.
		"q3": `SELECT * FROM lineitem, orders
		       WHERE lineitem.l_orderkey = orders.o_orderkey
		         AND lineitem.l_shipdate <= ?0
		         AND orders.o_orderdate <= 1200
		         AND orders.o_totalprice >= ?1`,
	} {
		tpl, err := pqo.ParseTemplate(name, sql, sys.Cat)
		if err != nil {
			t.Fatal(err)
		}
		te, err := sys.EngineFor(tpl)
		if err != nil {
			t.Fatal(err)
		}
		eng := &statsCountingEngine{TemplateEngine: te}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(name, tpl.SQL(), eng, scr); err != nil {
			t.Fatal(err)
		}
		engs[name] = eng
	}
	s.SetSystem(sys)
	h := s.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}} {
		for name := range engs {
			if w, _ := postPlan(t, h, PlanRequest{Template: name, SVector: sv}); w.Code != http.StatusOK {
				t.Fatalf("seeding %s: status %d body %s", name, w.Code, w.Body)
			}
		}
	}

	scrape := func(phase string) {
		t.Helper()
		before := map[string]int64{}
		for name, eng := range engs {
			before[name] = eng.reads.Load()
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: /v1/metrics status %d", phase, w.Code)
		}
		for name, eng := range engs {
			if got := eng.reads.Load() - before[name]; got != 1 {
				t.Errorf("%s: one scrape read %s's Stats %d times, want 1", phase, name, got)
			}
		}
	}
	scrape("before any advance")
	if w, resp := postAdminStats(t, h, `{"resampleSeed": 99}`); resp == nil {
		t.Fatalf("advance: status %d body %s", w.Code, w.Body)
	}
	scrape("after an advance")
}

// TestMetricsMatchReference pins the buffer renderer to the fmt-based
// reference byte for byte: on a fixed registry whose names need quoting
// and whose values cover large counters, fractional and tiny seconds, and
// on a live server's scrape through the handler.
func TestMetricsMatchReference(t *testing.T) {
	fixed := &metricsScrape{domains: 3, shed: 1 << 33, lag: 0.000123456789}
	for i, name := range []string{"a", `quo"te\back`, "tab\tnl\nü\x00"} {
		e := &entry{name: name}
		for k := range e.hist {
			for j := 0; j <= i+k; j++ {
				e.hist[k].observe(time.Duration(j*j*j*7919+k) * time.Microsecond)
			}
		}
		e.hist[0].observe(time.Hour)
		fixed.entries = append(fixed.entries, e)
		fixed.stats = append(fixed.stats, statsSnapshot{
			Instances: int64(i) << 40, OptCalls: 12345, ReadPathHits: 1,
			CurPlans: 7 * i, MemoryBytes: 1 << 20, BreakerState: pqo.BreakerState(i),
			StatsEpoch: uint64(i * 1000), ClusterEpoch: 1<<63 + uint64(i), EpochSkew: 2, LaggingInstances: -1,
			WriteLockWait: time.Duration(i)*time.Second + 123456789*time.Nanosecond,
			BreakerOpens:  3, BreakerHalfOpens: int64(i), BreakerCloses: 9,
			PublishTotal: 1e15,
		})
	}
	var want bytes.Buffer
	writeMetricsFmt(&want, fixed)
	if got := fixed.appendTo(nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("fixed registry renders differently:\n%s", firstDiff(got, want.Bytes()))
	}

	s, _ := adminSystem(t)
	h := s.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}, {0.02, 0.1}} {
		for _, tpl := range []string{"q1", "q2", "q3"} {
			if w, _ := postPlan(t, h, PlanRequest{Template: tpl, SVector: sv}); w.Code != http.StatusOK {
				t.Fatalf("seeding %s: status %d body %s", tpl, w.Code, w.Body)
			}
		}
	}
	for scrape := 0; scrape < 2; scrape++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		want.Reset()
		writeMetricsFmt(&want, s.readMetrics())
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("scrape %d renders differently:\n%s", scrape, firstDiff(w.Body.Bytes(), want.Bytes()))
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Errorf("scrape %d: Content-Length %q for a %d-byte body", scrape, cl, w.Body.Len())
		}
	}
}

// firstDiff describes where two renderings first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d (len %d vs %d)\ngot  …%q\nwant …%q",
		i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// discardWriter is a ResponseWriter that keeps only the body's size.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkMetricsScrape measures one /v1/metrics scrape through the
// handler with 31 templates registered, the body discarded: every
// template's Stats reading, its scalar series and its latency histograms.
func BenchmarkMetricsScrape(b *testing.B) {
	h := churnServer(b).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.n = 0
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(w.n)/1024, "body-kB")
}

// writeMetricsFmt is the fmt-based /v1/metrics renderer the server used
// before it rendered into one buffer, kept as the reference the buffer
// renderer must match byte for byte.
func writeMetricsFmt(w io.Writer, m *metricsScrape) {
	entries, stats := m.entries, m.stats

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
	fmt.Fprintf(w, "pqo_write_domains %d\n", m.domains)

	fmt.Fprintln(w, "# HELP pqo_shed_total /plan requests shed with 429 because every in-flight slot stayed busy.")
	fmt.Fprintln(w, "# TYPE pqo_shed_total counter")
	fmt.Fprintf(w, "pqo_shed_total %d\n", m.shed)

	fmt.Fprintln(w, "# HELP pqo_epoch_lag_seconds Seconds since the last epoch advance while any plan-cache anchor still lags it (0 once revalidation drains).")
	fmt.Fprintln(w, "# TYPE pqo_epoch_lag_seconds gauge")
	fmt.Fprintf(w, "pqo_epoch_lag_seconds %g\n", m.lag)

	fmt.Fprintln(w, "# HELP pqo_check_latency_seconds /plan decision latency by serving mechanism: from after request decode and slot acquisition to the priced decision, excluding response encoding.")
	fmt.Fprintln(w, "# TYPE pqo_check_latency_seconds histogram")
	for _, e := range entries {
		for i := range e.hist {
			labels := fmt.Sprintf("template=%q,via=%q", e.name, checkLabels[i])
			writePromFmt(&e.hist[i], w, "pqo_check_latency_seconds", labels)
		}
	}
}

// writePromFmt is the fmt-based rendering of one latency histogram.
func writePromFmt(h *latencyHist, w io.Writer, name, labels string) {
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
