package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesMetrics).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the plan service sees; --trace 0
// prints them. Each reads non-zero on every workload, so a relative bound
// on it means something.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"plans_cached", "count", "lower"},
	{"cost_ratio", "ratio", "lower"},
	{"subopt_max", "ratio", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics; --trace 1 prints them. The first
// four are end-to-end quantities that read 0 on some workload.
var perLayer = []metricDef{
	{"opt_per_1k", "count", "lower"},
	{"failed_pct", "%", "lower"},
	{"degraded_pct", "%", "lower"},
	{"reval_drain_ms", "ms", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"server.recost_per_req", "count", "lower"},
	{"server.scrape_ms", "ms", "lower"},
	{"server.scrape_kb", "kB", "lower"},
	{"server.admin_stats_ms", "ms", "lower"},
	{"core.process_us", "us", "lower"},
	{"core.process_p99_us", "us", "lower"},
	{"core.process_sel_us", "us", "lower"},
	{"core.process_cost_us", "us", "lower"},
	{"core.process_opt_us", "us", "lower"},
	{"core.self_us", "us", "lower"},
	{"core.lookup_ns", "ns", "lower"},
	{"core.via_sel_pct", "%", "higher"},
	{"core.via_cost_pct", "%", "higher"},
	{"core.via_opt_pct", "%", "lower"},
	{"core.via_shared_pct", "%", "higher"},
	{"core.via_fallback_pct", "%", "lower"},
	{"core.sel_checks_per_req", "count", "lower"},
	{"core.recosts_per_req", "count", "lower"},
	{"core.cost_check_yield", "ratio", "higher"},
	{"core.instances_total", "count", "lower"},
	{"core.instances_max", "count", "lower"},
	{"core.publish_per_store", "ratio", "lower"},
	{"core.writer_wait_ms", "ms", "lower"},
	{"core.shared_opt_pct", "%", "higher"},
	{"core.stats_us", "us", "lower"},
	{"core.revalidated_per_advance", "count", "lower"},
	{"core.reval_failed", "count", "lower"},
	{"core.epoch_lag_fallbacks", "count", "lower"},
	{"engine.optimize_us", "us", "lower"},
	{"engine.optimize_p99_us", "us", "lower"},
	{"engine.prepare_recost_us", "us", "lower"},
	{"engine.recost_us", "us", "lower"},
	{"engine.recost_cache_hit_pct", "%", "higher"},
	{"engine.env_pool_reuse_pct", "%", "higher"},
	{"engine.opt_recost_ratio", "ratio", "higher"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.bytes_per_req", "B", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.coverage_pct", "%", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine is the metadata every artifact carries.
type machine struct {
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func readMachine(clients int, commit string) machine {
	m := machine{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", Commit: commit, Clients: clients,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// report is one run's artifact: every metric computed, the oracle's
// verdict, and the machine it ran on.
type report struct {
	Benchmark      string            `json:"benchmark"`
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Traced         bool              `json:"traced"`
	Seconds        float64           `json:"seconds"`
	Machine        machine           `json:"machine"`
	Attempted      int64             `json:"attempted"`
	Failed         int64             `json:"failed"`
	Malformed      int64             `json:"malformed"`
	FirstError     string            `json:"firstError,omitempty"`
	LatencySamples int               `json:"latencySamples"`
	Rounds         int               `json:"rounds"`
	Advances       int               `json:"advances"`
	Oracle         verdict           `json:"oracle"`
	Metrics        map[string]metric `json:"metrics"`
}

func newReport(b *bench, traced bool, dur time.Duration) *report {
	return &report{
		Benchmark: "planbench", Workload: b.w.name, Seed: b.seed, Traced: traced,
		Seconds: dur.Seconds(), Metrics: make(map[string]metric),
	}
}

// set records a metric; a value with no finite reading is recorded as 0.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("planbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// correct reports whether every output checked out: every request was
// answered with 200 (the workloads are sized so that nothing is shed or
// times out), every 200 response was a well-formed decision, and the
// oracle found every decision within λ.
func (r *report) correct() bool { return r.Failed == 0 && r.Malformed == 0 && r.Oracle.ok() }

// result selects the metrics this mode prints.
func (r *report) result() (result, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = m
	}
	return res, nil
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Traced {
		mode = "traced"
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+"-"+mode+".json"), append(data, '\n'), 0o644)
}

// print writes every measured metric as a table.
func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	m := r.Machine
	fmt.Fprintf(w, "planbench %s seed=%d traced=%v clients=%d %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		r.Workload, r.Seed, r.Traced, m.Clients, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.CPUModel, m.Commit)
	fmt.Fprintf(w, "  attempted=%d failed=%d malformed=%d latency samples=%d rounds=%d advances=%d\n",
		r.Attempted, r.Failed, r.Malformed, r.LatencySamples, r.Rounds, r.Advances)
	fmt.Fprintf(w, "  oracle: checked=%d violations=%d unresolved=%d degraded=%d worst=%.4f %s\n",
		r.Oracle.Checked, r.Oracle.Violations, r.Oracle.Unresolved, r.Oracle.Degraded, r.Oracle.Worst, r.Oracle.Example)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
}

// count adds a phase's request outcomes to the totals.
func (r *report) count(p *phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Malformed += p.malformed
	if r.FirstError == "" {
		r.FirstError = p.firstError
	}
}

// addLoad records the client-observed metrics of a measured phase.
func (r *report) addLoad(p *phaseResult) {
	r.count(p)
	r.LatencySamples = len(p.lat)
	r.Rounds = p.rounds
	r.set("throughput_rps", p.throughput())
	r.set("latency_p50_us", quantile(p.lat, 0.50)/1e3)
	r.set("latency_p99_us", quantile(p.lat, 0.99)/1e3)
}

// addOutcome records what the phase's decisions amount to: the paper's
// numOpt, numPlans, TC and MSO, plus failures and degradation.
func (r *report) addOutcome(p *phaseResult, v verdict) {
	r.Oracle = v
	r.Advances = len(p.steps)
	r.set("plans_cached", median(p.plans))
	r.set("cost_ratio", ratio(v.ServedCost, v.OptCost))
	r.set("subopt_max", v.Worst)
	r.set("opt_per_1k", 1000*ratio(float64(p.delta[ctrOptCalls]), float64(len(p.lat))))
	r.set("failed_pct", 100*ratio(float64(p.failed), float64(p.attempted)))
	degraded := 0
	for _, d := range p.decs {
		if d.flags&flagDegraded != 0 {
			degraded++
		}
	}
	r.set("degraded_pct", 100*ratio(float64(degraded), float64(len(p.decs))))
	drains := make([]float64, len(p.steps))
	for i, s := range p.steps {
		drains[i] = float64(s.drain) / 1e6
	}
	r.set("reval_drain_ms", median(drains))
}

// addCounters records the phase-A metrics that come from counter deltas,
// the via mix and the live deployment d.
func (r *report) addCounters(d *deployment, a *phaseResult) error {
	k := a.delta
	done := float64(len(a.lat))
	var via [numVias]float64
	shared := 0.0
	for _, dec := range a.decs {
		if dec.flags&flagShared != 0 {
			shared++
		} else {
			via[dec.via]++
		}
	}
	n := float64(len(a.decs))
	r.set("core.via_sel_pct", 100*ratio(via[viaSelectivity], n))
	r.set("core.via_cost_pct", 100*ratio(via[viaCost], n))
	r.set("core.via_opt_pct", 100*ratio(via[viaOptimizer], n))
	r.set("core.via_shared_pct", 100*ratio(shared, n))
	r.set("core.via_fallback_pct", 100*ratio(via[viaFallback], n))
	r.set("core.cost_check_yield", ratio(via[viaCost], via[viaCost]+via[viaOptimizer]+shared))
	r.set("core.sel_checks_per_req", ratio(float64(k[ctrSelChecks]), done))
	r.set("core.recosts_per_req", ratio(float64(k[ctrPlanRecosts]), done))
	total, largest := d.instances()
	r.set("core.instances_total", float64(total))
	r.set("core.instances_max", float64(largest))
	r.set("core.publish_per_store", ratio(float64(k[ctrPublishes]), float64(k[ctrOptCalls])))
	r.set("core.writer_wait_ms", float64(k[ctrWriterWaitNs])/1e6)
	r.set("core.shared_opt_pct", 100*ratio(float64(k[ctrSharedOpt]), float64(k[ctrOptCalls]+k[ctrSharedOpt])))
	r.set("core.stats_us", statsCallUs(d.caches))
	r.set("core.revalidated_per_advance", ratio(float64(k[ctrRevalidated]), float64(len(a.steps))))
	r.set("core.reval_failed", float64(k[ctrRevalFailed]))
	r.set("core.epoch_lag_fallbacks", float64(k[ctrEpochLag]))
	r.set("engine.recost_us", ratio(float64(k[ctrRecostNs]), float64(k[ctrRecostCalls]))/1e3)
	r.set("engine.recost_cache_hit_pct", 100*ratio(float64(k[ctrCacheHits]), float64(k[ctrCacheHits]+k[ctrCacheMisses])))
	r.set("engine.env_pool_reuse_pct", 100*ratio(float64(k[ctrEnvReuses]), float64(k[ctrEnvGets])))
	r.set("runtime.allocs_per_req", ratio(float64(k[ctrMallocs]), done))
	r.set("runtime.bytes_per_req", ratio(float64(k[ctrAllocBytes]), done))
	r.set("runtime.gc_pause_ms", float64(k[ctrGCPauseNs])/1e6)

	admin := make([]float64, len(a.steps))
	scrape := make([]float64, len(a.steps))
	scrapeKB := 0.0
	for i, s := range a.steps {
		admin[i] = float64(s.admin) / 1e6
		scrape[i] = float64(s.scrape) / 1e6
		scrapeKB = float64(s.scrapeBytes) / 1e3
	}
	if len(a.steps) == 0 {
		// No operator: scrape the caches as phase A left them.
		dur, size, err := scrapeMetrics(d.url, 5)
		if err != nil {
			return err
		}
		scrape = []float64{float64(dur) / 1e6}
		scrapeKB = float64(size) / 1e3
	}
	r.set("server.admin_stats_ms", median(admin))
	r.set("server.scrape_ms", median(scrape))
	r.set("server.scrape_kb", scrapeKB)
	return nil
}

// statsCallUs is the cost of one SCR.Stats() call at the caches' current
// size: a sweep over every cache divided by the cache count, median of 5.
func statsCallUs(c *caches) float64 {
	sweeps := make([]float64, 5)
	for i := range sweeps {
		start := time.Now()
		for _, s := range c.scrs {
			_ = s.Stats()
		}
		sweeps[i] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(c.scrs))
	}
	return median(sweeps)
}

// addLayers records the span-derived metrics of phases B, C and D.
func (r *report) addLayers(base, c *phaseResult, tr *tracer, rp *replayResult) {
	split := splitRequests(tr, c.traceFrom)
	r.set("server.handler_us", quantile(split.handler, 0.5)/1e3)
	r.set("server.transport_us", quantile(split.transport, 0.5)/1e3)
	r.set("server.self_us", quantile(split.self, 0.5)/1e3)
	r.set("server.recost_per_req", ratio(float64(len(split.recost)), float64(split.handled)))

	// Engine spans from the traced deployment's whole life (its warm-up
	// holds the steady workloads' optimizer calls) and from the replay.
	durs := func(kind spanKind) []int64 {
		var out []int64
		for _, t := range []*tracer{tr, rp.tr} {
			for _, s := range t.since(0, kind) {
				out = append(out, s.dur())
			}
		}
		return out
	}
	optimize := durs(spanOptimize)
	optimizeUs := quantile(optimize, 0.5) / 1e3
	r.set("engine.optimize_us", optimizeUs)
	r.set("engine.optimize_p99_us", quantile(optimize, 0.99)/1e3)
	r.set("engine.prepare_recost_us", quantile(durs(spanPrepare), 0.5)/1e3)
	r.set("engine.opt_recost_ratio", ratio(optimizeUs, r.Metrics["engine.recost_us"].Value))

	r.set("core.process_us", quantile(rp.process, 0.5)/1e3)
	r.set("core.process_p99_us", quantile(rp.process, 0.99)/1e3)
	r.set("core.process_sel_us", quantile(rp.byVia[viaSelectivity], 0.5)/1e3)
	r.set("core.process_cost_us", quantile(rp.byVia[viaCost], 0.5)/1e3)
	r.set("core.process_opt_us", quantile(rp.byVia[viaOptimizer], 0.5)/1e3)
	r.set("core.self_us", quantile(rp.self, 0.5)/1e3)
	r.set("core.lookup_ns", median(rp.lookupNs))

	covered := quantile(split.transport, 0.5) + quantile(rp.process, 0.5) + quantile(split.recost, 0.5)
	r.set("trace.coverage_pct", 100*ratio(covered, quantile(base.lat, 0.5)))
	r.set("trace.overhead_pct", 100*ratio(base.throughput()-c.throughput(), base.throughput()))
}

// quantile is the nearest-rank q-quantile of xs, 0 for an empty slice; it
// sorts xs in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// median of xs, 0 for an empty slice; it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
