// Package pqo is the stable, importable facade of the repository: online
// parametric query optimization with the paper's λ-optimality guarantee
// (SIGMOD 2017, "Leveraging Re-costing for Online Optimization of
// Parameterized Queries with Guarantees").
//
// It re-exports the supported surface of the internal packages so
// consumers — including internal/server, the HTTP plan-cache service —
// depend on one import path instead of internal/core, internal/engine,
// internal/catalog and internal/sqlparse:
//
//	sys, _ := pqo.NewSystem(pqo.TPCH(0.1), 42)
//	tpl, _ := pqo.ParseTemplate("q", "SELECT ... WHERE a <= ?0", sys.Cat)
//	eng, _ := sys.EngineFor(tpl)
//	scr, _ := pqo.New(eng, pqo.WithLambda(2))
//	dec, _ := scr.Process(ctx, []float64{0.02, 0.10})
//
// The SCR plan cache is safe for concurrent use: cache hits are served
// lock-free off an immutable RCU snapshot, writers serialize on a
// per-template write domain with coalesced snapshot publication, and
// concurrent misses for identical instances share one optimizer call.
// A Directory groups many templates' SCRs so multi-template deployments
// revalidate and aggregate statistics without stop-the-world pauses.
// Snapshots round-trip through SCR.Export / SCR.Import.
package pqo

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// Core technique surface.
type (
	// SCR is the paper's online PQO technique: a concurrent plan cache
	// driven by the selectivity, cost and redundancy checks.
	SCR = core.SCR
	// Decision is the outcome of processing one query instance.
	Decision = core.Decision
	// Stats are the cumulative counters a technique reports.
	Stats = core.Stats
	// Check identifies how a plan decision was made.
	Check = core.Check
	// Option configures an SCR built with New.
	Option = core.Option
	// Engine is the database-engine surface a technique requires: a full
	// optimizer call and the Recost API.
	Engine = core.Engine
	// Technique is an online PQO technique processing a stream of query
	// instances for one template.
	Technique = core.Technique
	// DynamicLambda is Appendix D's per-instance λ configuration.
	DynamicLambda = core.DynamicLambda
	// ScanOrder selects the selectivity check's instance-list traversal.
	ScanOrder = core.ScanOrder
	// SnapshotSummary describes an exported plan cache.
	SnapshotSummary = core.SnapshotSummary
	// SnapshotPlan summarizes one cached plan within a snapshot.
	SnapshotPlan = core.SnapshotPlan
	// DegradedReason explains why a decision was served without the λ
	// guarantee (Decision.Degraded).
	DegradedReason = core.DegradedReason
	// BreakerState is the optimizer circuit breaker's state.
	BreakerState = core.BreakerState
	// FaultReporter is implemented by engines that count injected faults
	// (internal/faultinject); Stats picks the count up automatically.
	FaultReporter = core.FaultReporter
	// EpochEngine is the optional versioned-statistics surface of an
	// Engine: epoch-reporting Optimize/Recost plus the current epoch id.
	EpochEngine = core.EpochEngine
	// Revalidation is a handle on one background cache-revalidation run
	// started by SCR.Revalidate after a statistics epoch advance.
	Revalidation = core.Revalidation
	// RevalidationProgress is a point-in-time snapshot of a run's counters.
	RevalidationProgress = core.RevalidationProgress
	// Directory groups per-template SCRs behind a lock-free name lookup;
	// each template is its own write domain, so writers to different
	// templates never contend and revalidation schedules across domains
	// usage-weighted.
	Directory = core.Directory
	// DirectoryStats aggregates Stats-level counters across a Directory's
	// domains without stopping writers.
	DirectoryStats = core.DirectoryStats
	// Epoch is one statistics generation: a monotonic id plus the
	// immutable statistics store it names.
	Epoch = stats.Epoch
	// StatsStore is an immutable per-column histogram statistics store.
	StatsStore = stats.Store
	// HistogramDelta is one column's replacement sample in a partial
	// statistics refresh (StatsStore.Apply).
	HistogramDelta = stats.HistogramDelta
)

// DefaultRevalidationWorkers is SCR.Revalidate's worker-pool size when
// the caller passes workers <= 0.
const DefaultRevalidationWorkers = core.DefaultRevalidationWorkers

// Decision provenance values.
const (
	ViaOptimizer   = core.ViaOptimizer
	ViaSelectivity = core.ViaSelectivity
	ViaCost        = core.ViaCost
	ViaInference   = core.ViaInference
	ViaFallback    = core.ViaFallback
)

// Degraded-decision reasons (Decision.DegradedReason).
const (
	DegradedBreakerOpen      = core.DegradedBreakerOpen
	DegradedOptimizerTimeout = core.DegradedOptimizerTimeout
	DegradedOptimizerPanic   = core.DegradedOptimizerPanic
	DegradedOptimizerError   = core.DegradedOptimizerError
	DegradedStatsEpochLag    = core.DegradedStatsEpochLag
	DegradedEpochSkew        = core.DegradedEpochSkew
)

// Circuit breaker states (Stats.BreakerState).
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// Scan orders for WithScanOrder.
const (
	ScanInsertion = core.ScanInsertion
	ScanByArea    = core.ScanByArea
	ScanByUsage   = core.ScanByUsage
)

// Sentinel errors; match with errors.Is.
var (
	ErrNoPlan           = core.ErrNoPlan
	ErrBudgetExhausted  = core.ErrBudgetExhausted
	ErrCancelled        = core.ErrCancelled
	ErrInvalidConfig    = core.ErrInvalidConfig
	ErrOptimizerTimeout = core.ErrOptimizerTimeout
	ErrOptimizerPanic   = core.ErrOptimizerPanic
	ErrBreakerOpen      = core.ErrBreakerOpen
	ErrUnavailable      = core.ErrUnavailable
	ErrEpochUnsupported = core.ErrEpochUnsupported
	ErrSnapshotCorrupt  = core.ErrSnapshotCorrupt
)

// New builds an SCR plan cache over eng from functional options; see the
// With* options for the available knobs. Defaults: λ=2, λr=√λ, cost-check
// limit 8, unlimited plan budget.
func New(eng Engine, opts ...Option) (*SCR, error) { return core.New(eng, opts...) }

// Functional options for New.
var (
	WithLambda              = core.WithLambda
	WithDynamicLambda       = core.WithDynamicLambda
	WithRedundancyThreshold = core.WithRedundancyThreshold
	WithStoreAlways         = core.WithStoreAlways
	WithPlanBudget          = core.WithPlanBudget
	WithCostCheckLimit      = core.WithCostCheckLimit
	WithoutCostCheck        = core.WithoutCostCheck
	WithGLCutoff            = core.WithGLCutoff
	WithCandidateOrderByL   = core.WithCandidateOrderByL
	WithScanOrder           = core.WithScanOrder
	WithViolationDetection  = core.WithViolationDetection
	WithDegradedFallback    = core.WithDegradedFallback
	WithOptimizerDeadline   = core.WithOptimizerDeadline
	WithCircuitBreaker      = core.WithCircuitBreaker
	WithClusterSkewBound    = core.WithClusterSkewBound
)

// NewDirectory returns an empty template directory; attach each
// template's SCR under its template name.
func NewDirectory() *Directory { return core.NewDirectory() }

// InspectSnapshot parses an SCR.Export-produced snapshot and returns its
// summary without needing an engine.
func InspectSnapshot(data []byte) (*SnapshotSummary, error) {
	return core.InspectSnapshot(data)
}

// WriteSnapshotFile persists an SCR.Export-produced snapshot crash-safely:
// framed with a checksum, written to a temp file, fsynced and atomically
// renamed over path, so a process killed mid-persist always leaves either
// the previous snapshot or the new one — never a torn mix.
func WriteSnapshotFile(path string, data []byte) error {
	return core.WriteSnapshotFile(path, data)
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile,
// verifying its checksum; damaged files fail with an error wrapping
// ErrSnapshotCorrupt. Pre-framing snapshots (raw Export JSON) pass
// through unverified for backward compatibility.
func ReadSnapshotFile(path string) ([]byte, error) {
	return core.ReadSnapshotFile(path)
}

// Database-system surface: catalogs, templates, engines.
type (
	// System bundles a catalog with its statistics and optimizer.
	System = engine.System
	// TemplateEngine binds the optimizer to one query template; it
	// implements Engine and supports snapshot rehydration.
	TemplateEngine = engine.TemplateEngine
	// CachedPlan is the unit stored in a plan cache.
	CachedPlan = engine.CachedPlan
	// Catalog describes a database schema with table statistics.
	Catalog = catalog.Catalog
	// Template is a parameterized query template; its parameterized
	// predicates are the selectivity dimensions.
	Template = query.Template
)

// TPCH returns the built-in TPC-H-shaped catalog at the given scale factor.
func TPCH(sf float64) *Catalog { return catalog.NewTPCH(sf) }

// TPCDS returns the built-in TPC-DS-shaped catalog at the given scale
// factor.
func TPCDS(sf float64) *Catalog { return catalog.NewTPCDS(sf) }

// NewSystem builds histogram statistics and an optimizer for cat with the
// default cost model; seed drives the deterministic synthetic data.
func NewSystem(cat *Catalog, seed int64) (*System, error) {
	return engine.NewSystem(cat, seed)
}

// ParseTemplate parses a parameterized SQL string (placeholders ?0, ?1, …
// mark the selectivity dimensions) into a template over cat.
func ParseTemplate(name, sql string, cat *Catalog) (*Template, error) {
	return sqlparse.Parse(name, sql, cat)
}
