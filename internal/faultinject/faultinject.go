// Package faultinject is a deterministic fault-injection framework for the
// engine surface the PQO techniques depend on. It exists to *prove* the
// degraded-mode serving path (docs/ROBUSTNESS.md): chaos tests wrap an
// engine in a FaultyEngine, script optimizer latency spikes, error bursts
// and panics from a seed, and assert that every response the system
// produces is either λ-guaranteed or explicitly degraded — never an
// unexplained failure.
//
// Determinism is the design center: every injection decision is drawn from
// a seeded PRNG (or an explicit boolean sequence), so a failing chaos run
// reproduces from its seed alone. A nil *Injector — and a disabled one —
// injects nothing; production code simply never wraps its engine, so the
// fully-disabled configuration is byte-for-byte the existing fast path.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Site identifies one injection point on the engine surface.
type Site string

// The injectable engine entry points.
const (
	// SiteOptimize fires on Engine.Optimize — the paper's expensive full
	// optimizer call, and the call most worth protecting with a deadline
	// and a circuit breaker.
	SiteOptimize Site = "optimize"
	// SiteRecost fires on Engine.Recost — the cost check's hot path.
	SiteRecost Site = "recost"
	// SitePrepare fires on BatchEngine.PrepareRecost.
	SitePrepare Site = "prepare-recost"
	// SiteTransport fires once per HTTP request routed through a
	// Transport wrapper (transport.go) — the cluster propagation path's
	// injection point for drops, delays, duplicate deliveries and
	// synthetic server errors.
	SiteTransport Site = "transport"
)

// Sites lists every injection point, in a fixed order (for reports).
var Sites = []Site{SiteOptimize, SiteRecost, SitePrepare, SiteTransport}

// Fault describes what happens when an injection fires. Latency is applied
// first, then Panic, then Err, so a single Point can model a slow failure.
type Fault struct {
	// Latency is added before the underlying call proceeds (or before the
	// error/panic below fires), modeling an optimizer stall.
	Latency time.Duration
	// Panic, when true, panics with a descriptive value instead of
	// returning — modeling an optimizer crash bug.
	Panic bool
	// Err, when non-nil, is returned without invoking the underlying
	// engine — modeling an engine fault. At SiteTransport it is returned
	// without delivering the request, modeling a refused connection.
	Err error

	// The remaining behaviors apply only at SiteTransport (transport.go);
	// engine sites ignore them. Order after Latency: Drop, Err, Status,
	// then — post-delivery — DropResponse, Duplicate.
	//
	// Drop suppresses delivery entirely (a blackholed packet): the server
	// never sees the request and the caller gets a transport error.
	Drop bool
	// DropResponse delivers the request but loses the response — the
	// server-side effect happens, the caller still sees a transport
	// error. This is the case that forces idempotent install handlers.
	DropResponse bool
	// Duplicate delivers the request twice (a retransmit) and returns the
	// second response, exercising duplicate-delivery tolerance.
	Duplicate bool
	// Status, when non-zero, short-circuits with a synthetic HTTP
	// response of that status code (e.g. 500) without delivering.
	Status int
}

// Point configures injection at one site.
//
// When Sequence is non-empty it fully scripts the site: call i fires iff
// Sequence[i mod len(Sequence)], which makes tests byte-deterministic
// regardless of seed. Otherwise each call fires independently with
// probability Rate drawn from the injector's seeded PRNG.
type Point struct {
	Rate     float64
	Sequence []bool
	Fault    Fault
}

// pointState is a configured Point plus its per-site call counter.
type pointState struct {
	Point
	calls    atomic.Int64
	injected atomic.Int64
}

// Injector decides, per call site, whether to inject a fault. It is safe
// for concurrent use; decisions serialize on an internal mutex so the
// seeded PRNG stream stays deterministic given a deterministic call order
// (concurrent chaos tests that need exact scripts use Sequence instead).
//
// The zero-cost contract: a nil Injector injects nothing and adds nothing
// but a nil check; Disable makes a wired injector inert behind one atomic
// load.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	points  map[Site]*pointState
	enabled atomic.Bool
	total   atomic.Int64
}

// New returns an enabled Injector whose probabilistic decisions derive
// from seed. Configure sites with Set.
func New(seed int64) *Injector {
	in := &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[Site]*pointState),
	}
	in.enabled.Store(true)
	return in
}

// Set configures (or replaces) the injection point at site.
func (in *Injector) Set(site Site, p Point) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points[site] = &pointState{Point: p}
	return in
}

// Enable arms the injector.
func (in *Injector) Enable() { in.enabled.Store(true) }

// Disable makes the injector inert: every At call returns no fault after a
// single atomic load, and per-site call counters stop advancing.
func (in *Injector) Disable() { in.enabled.Store(false) }

// Injected reports the total number of faults injected across all sites.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// InjectedAt reports the number of faults injected at site.
func (in *Injector) InjectedAt(site Site) int64 {
	if in == nil {
		return 0
	}
	ps := in.point(site)
	if ps == nil {
		return 0
	}
	return ps.injected.Load()
}

// point looks up a site's state under the mutex.
func (in *Injector) point(site Site) *pointState {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.points[site]
}

// At decides whether a fault fires for the current call at site. The
// returned Fault is meaningful only when fire is true.
func (in *Injector) At(site Site) (f Fault, fire bool) {
	if in == nil || !in.enabled.Load() {
		return Fault{}, false
	}
	ps, fire := in.decide(site)
	if !fire {
		return Fault{}, false
	}
	ps.injected.Add(1)
	in.total.Add(1)
	return ps.Fault, true
}

// decide rolls the site's sequence or rate under the mutex (the PRNG is
// not concurrency-safe).
func (in *Injector) decide(site Site) (ps *pointState, fire bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	ps = in.points[site]
	if ps == nil {
		return nil, false
	}
	n := ps.calls.Add(1) - 1
	if len(ps.Sequence) > 0 {
		fire = ps.Sequence[int(n)%len(ps.Sequence)]
	} else if ps.Rate > 0 {
		fire = in.rng.Float64() < ps.Rate
	}
	return ps, fire
}

// apply executes the fault's behavior in order: latency, panic, error.
// It returns the error to surface (nil means "proceed to the real call").
func apply(site Site, f Fault) error {
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.Panic {
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	}
	return f.Err
}

// Engine is the engine surface FaultyEngine wraps. It is structurally
// identical to core.Engine; declaring it locally keeps this package off
// the core dependency graph so core's own tests can use the injector.
type Engine interface {
	Dimensions() int
	Optimize(sv []float64) (*engine.CachedPlan, float64, error)
	Recost(cp *engine.CachedPlan, sv []float64) (float64, error)
}

// batchEngine mirrors core.BatchEngine.
type batchEngine interface {
	PrepareRecost(sv []float64) (*engine.PreparedInstance, error)
}

// cacheReporter mirrors core.CacheReporter.
type cacheReporter interface {
	RecostCacheCounters() (hits, misses int64)
	EnvPoolCounters() (gets, reuses int64)
}

// epochEngine mirrors core.EpochEngine's epoch surface.
type epochEngine interface {
	StatsEpoch() uint64
	CostEpoch() uint64
	OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error)
	RecostEpoch(cp *engine.CachedPlan, sv []float64) (float64, uint64, error)
}

// FaultyEngine wraps an engine with an Injector. It implements
// core.Engine, and forwards core.BatchEngine / core.CacheReporter to the
// inner engine when it supports them; it also implements
// core.FaultReporter so injected-fault counts surface through SCR.Stats,
// /stats and /metrics.
type FaultyEngine struct {
	inner Engine
	inj   *Injector
}

// Wrap returns eng with inj interposed on every engine call. A nil inj is
// legal and yields a transparent wrapper.
func Wrap(eng Engine, inj *Injector) *FaultyEngine {
	return &FaultyEngine{inner: eng, inj: inj}
}

// Injector returns the wrapped injector (nil for a transparent wrapper).
func (e *FaultyEngine) Injector() *Injector { return e.inj }

// Dimensions implements core.Engine.
func (e *FaultyEngine) Dimensions() int { return e.inner.Dimensions() }

// Optimize implements core.Engine, consulting SiteOptimize first.
func (e *FaultyEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	if f, fire := e.inj.At(SiteOptimize); fire {
		if err := apply(SiteOptimize, f); err != nil {
			return nil, 0, err
		}
	}
	return e.inner.Optimize(sv)
}

// Recost implements core.Engine, consulting SiteRecost first.
func (e *FaultyEngine) Recost(cp *engine.CachedPlan, sv []float64) (float64, error) {
	if f, fire := e.inj.At(SiteRecost); fire {
		if err := apply(SiteRecost, f); err != nil {
			return 0, err
		}
	}
	return e.inner.Recost(cp, sv)
}

// PrepareRecost implements core.BatchEngine when the inner engine batches;
// otherwise it reports an error, which batching callers treat as "fall
// back to per-call Recost" (so the SiteRecost point still governs them).
func (e *FaultyEngine) PrepareRecost(sv []float64) (*engine.PreparedInstance, error) {
	be, ok := e.inner.(batchEngine)
	if !ok {
		return nil, fmt.Errorf("faultinject: inner engine %T does not batch", e.inner)
	}
	if f, fire := e.inj.At(SitePrepare); fire {
		if err := apply(SitePrepare, f); err != nil {
			return nil, err
		}
	}
	return be.PrepareRecost(sv)
}

// RecostCacheCounters implements core.CacheReporter by delegation; zeros
// when the inner engine does not report.
func (e *FaultyEngine) RecostCacheCounters() (hits, misses int64) {
	if cr, ok := e.inner.(cacheReporter); ok {
		return cr.RecostCacheCounters()
	}
	return 0, 0
}

// EnvPoolCounters implements core.CacheReporter by delegation.
func (e *FaultyEngine) EnvPoolCounters() (gets, reuses int64) {
	if cr, ok := e.inner.(cacheReporter); ok {
		return cr.EnvPoolCounters()
	}
	return 0, 0
}

// InjectedFaults implements core.FaultReporter.
func (e *FaultyEngine) InjectedFaults() int64 { return e.inj.Injected() }

// StatsEpoch implements core.EpochEngine by delegation; an epoch-less
// inner engine is reported as permanently at epoch 0, which core treats
// identically to the engine not implementing epochs at all.
func (e *FaultyEngine) StatsEpoch() uint64 {
	if ee, ok := e.inner.(epochEngine); ok {
		return ee.StatsEpoch()
	}
	return 0
}

// CostEpoch implements core.EpochEngine by delegation, 0 for an
// epoch-less inner engine like StatsEpoch.
func (e *FaultyEngine) CostEpoch() uint64 {
	if ee, ok := e.inner.(epochEngine); ok {
		return ee.CostEpoch()
	}
	return 0
}

// OptimizeEpoch implements core.EpochEngine, consulting SiteOptimize
// first — the background revalidator's optimizer calls route through the
// exact same injection point as foreground traffic.
func (e *FaultyEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	if f, fire := e.inj.At(SiteOptimize); fire {
		if err := apply(SiteOptimize, f); err != nil {
			return nil, 0, 0, err
		}
	}
	if ee, ok := e.inner.(epochEngine); ok {
		return ee.OptimizeEpoch(sv)
	}
	cp, c, err := e.inner.Optimize(sv)
	return cp, c, 0, err
}

// RecostEpoch implements core.EpochEngine, consulting SiteRecost first.
func (e *FaultyEngine) RecostEpoch(cp *engine.CachedPlan, sv []float64) (float64, uint64, error) {
	if f, fire := e.inj.At(SiteRecost); fire {
		if err := apply(SiteRecost, f); err != nil {
			return 0, 0, err
		}
	}
	if ee, ok := e.inner.(epochEngine); ok {
		return ee.RecostEpoch(cp, sv)
	}
	c, err := e.inner.Recost(cp, sv)
	return c, 0, err
}

// Canonical fault profiles for chaos suites. Each returns a fresh
// injector derived from seed; rate is the per-call injection probability.

// LatencyProfile models an optimizer that intermittently stalls for spike.
func LatencyProfile(seed int64, rate float64, spike time.Duration) *Injector {
	return New(seed).Set(SiteOptimize, Point{Rate: rate, Fault: Fault{Latency: spike}})
}

// ErrorProfile models an engine that intermittently fails both optimizer
// calls and recosts.
func ErrorProfile(seed int64, rate float64, err error) *Injector {
	return New(seed).
		Set(SiteOptimize, Point{Rate: rate, Fault: Fault{Err: err}}).
		Set(SiteRecost, Point{Rate: rate, Fault: Fault{Err: err}})
}

// PanicProfile models an optimizer with an intermittent crash bug.
func PanicProfile(seed int64, rate float64) *Injector {
	return New(seed).Set(SiteOptimize, Point{Rate: rate, Fault: Fault{Panic: true}})
}
