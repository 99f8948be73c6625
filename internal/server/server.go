// Package server is the HTTP plan-cache service around SCR: a production
// front-end for the paper's online PQO technique.
//
// A Server owns one SCR plan cache per registered query template and
// serves mixed read-mostly traffic concurrently — cache hits resolve on
// SCR's lock-free snapshot read path, and concurrent identical misses
// share a single optimizer call. The API is versioned under /v1 (docs/API.md);
// the route registry in routes.go is the single source of truth and also
// generates /v1/openapi.json:
//
//	POST /v1/plan         {template, sVector} → plan decision + epoch + cost
//	GET  /v1/templates    registered templates with SQL and dimensionality
//	GET  /v1/stats        the paper's metrics per template (JSON)
//	GET  /v1/metrics      Prometheus text format: counters + latency histograms
//	POST /v1/snapshot     persist every plan cache via Export
//	GET  /v1/healthz      liveness/readiness
//	POST /v1/admin/stats  install a statistics generation, advance the epoch
//	GET  /v1/admin/epochs epoch log with revalidation progress
//	GET  /v1/openapi.json the generated OpenAPI document
//
// Any other path, including the unversioned /plan, /stats, ... that
// predate /v1, answers 404 ErrNotFound. Every error response uses the
// JSON envelope {"error","sentinel"}.
//
// The server dogfoods the public pqo facade: apart from this package's
// own plumbing it depends only on repro/pqo.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/pqo"
)

// Config tunes a Server. The zero value is usable: a 5s request timeout,
// snapshots disabled, logging discarded.
type Config struct {
	// RequestTimeout bounds each /plan request, including any optimizer
	// call it triggers. Process observes cancellation via context; an
	// expired request returns 504 with an ErrCancelled-wrapped error.
	// Zero means DefaultRequestTimeout; negative disables the timeout.
	RequestTimeout time.Duration
	// SnapshotDir, when non-empty, enables plan-cache persistence:
	// Register restores <dir>/<template>.json when present, POST
	// /snapshot and Shutdown write them back.
	SnapshotDir string
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger

	// MaxInFlight bounds concurrently-processing /plan requests; zero
	// means unlimited. When every slot is busy an arriving request waits
	// up to QueueWait for one to free and is otherwise shed with
	// 429 Too Many Requests and a Retry-After hint — overload degrades
	// into fast, explicit rejections instead of a latency collapse.
	MaxInFlight int
	// QueueWait bounds how long a /plan request may wait for an in-flight
	// slot before being shed. Zero means DefaultQueueWait; it only
	// matters when MaxInFlight > 0.
	QueueWait time.Duration
	// RetryAfter is the Retry-After value (rounded up to whole seconds)
	// attached to shed responses. Zero means DefaultRetryAfter.
	RetryAfter time.Duration
}

// DefaultRequestTimeout bounds /plan requests when Config.RequestTimeout
// is zero.
const DefaultRequestTimeout = 5 * time.Second

// DefaultQueueWait bounds the wait for an in-flight slot when
// Config.MaxInFlight is set and Config.QueueWait is zero.
const DefaultQueueWait = 100 * time.Millisecond

// DefaultRetryAfter is the shed-response Retry-After hint when
// Config.RetryAfter is zero.
const DefaultRetryAfter = time.Second

// shedRecencyWindow is how recently a request must have been shed for
// /healthz to report "degraded" on that evidence.
const shedRecencyWindow = 10 * time.Second

// Server is an HTTP front-end over per-template SCR plan caches. All
// methods are safe for concurrent use.
type Server struct {
	cfg Config

	httpSrv atomic.Pointer[http.Server] // the serving http.Server, if any

	// dir is the template registry: a pqo.Directory of per-template write
	// domains, each attached with its *entry as the value. /v1/plan
	// resolves a template with one atomic load and a binary search, every
	// per-template walk reads one published snapshot already sorted by
	// name, and epoch revalidation schedules across it (usage-weighted,
	// one shared worker pool).
	dir *pqo.Directory

	// sem bounds in-flight /plan work when Config.MaxInFlight > 0; nil
	// means unlimited. Acquiring is a buffered-channel send so the hot
	// path pays one channel op when a slot is free.
	sem       chan struct{}
	shedTotal atomic.Int64
	lastShed  atomic.Int64 // unix nanos of the most recent shed
	draining  atomic.Bool  // set by Shutdown before the listener closes

	// scrapeBytes is the previous /metrics body's length: the next
	// scrape's buffer size.
	scrapeBytes atomic.Int64

	// admin is the statistics-epoch administration state (admin.go): the
	// optional attached system plus the epoch log.
	admin adminState
}

// entry binds one registered template to its engine, plan cache and
// latency histograms (indexed by histOptimizer..histShared).
type entry struct {
	name string
	sql  string
	eng  pqo.Engine
	scr  *pqo.SCR
	hist [len(checkLabels)]latencyHist
}

// New returns an empty Server; add templates with Register.
func New(cfg Config) *Server {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.QueueWait == 0 {
		cfg.QueueWait = DefaultQueueWait
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{cfg: cfg, dir: pqo.NewDirectory()}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	return s
}

// Register adds a template under name, backed by eng and the given SCR
// cache. sql is informational (shown by /templates; empty is fine for
// synthetic engines). If Config.SnapshotDir holds a snapshot for name it
// is restored into scr before the template becomes visible — a corrupt
// or incompatible snapshot is logged and ignored, never fatal. A name
// already registered is rejected before scr is touched; of concurrent
// registrations of one name exactly one succeeds, and a loser's scr may
// hold the restored snapshot.
func (s *Server) Register(name, sql string, eng pqo.Engine, scr *pqo.SCR) error {
	if name == "" {
		return errors.New("server: empty template name")
	}
	if eng == nil || scr == nil {
		return fmt.Errorf("server: template %q needs an engine and an SCR", name)
	}
	if s.entry(name) != nil {
		return fmt.Errorf("server: template %q already registered", name)
	}
	if s.cfg.SnapshotDir != "" {
		// ReadSnapshotFile verifies the checksum framing, so a node killed
		// mid-persist rejoins from its last good snapshot: a torn write
		// fails verification here (logged, ignored) instead of being half-
		// imported, and the atomic-rename writer below means the previous
		// good file is still what's at this path.
		if data, err := pqo.ReadSnapshotFile(s.snapshotPath(name)); err == nil {
			if err := scr.Import(data); err != nil {
				s.logf("snapshot for %s ignored: %v", name, err)
			} else {
				s.logf("restored plan cache for %s (%d plans)", name, scr.Stats().CurPlans)
			}
		} else if !os.IsNotExist(err) {
			s.logf("snapshot for %s unreadable: %v", name, err)
		}
	}
	// Refuses the name if a concurrent Register took it since the check.
	return s.dir.AttachValue(name, scr, &entry{name: name, sql: sql, eng: eng, scr: scr})
}

// entry resolves a registered template lock-free, or returns nil.
func (s *Server) entry(name string) *entry {
	v, _ := s.dir.Value(name)
	e, _ := v.(*entry)
	return e
}

// registered returns the registered templates in name order, each an
// *entry: the directory snapshot's own slice, so walks neither copy nor
// sort, and must not modify it.
func (s *Server) registered() []any { return s.dir.Values() }

func (s *Server) snapshotPath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name+".json")
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// HealthStatus is the body of GET /v1/healthz: a three-state readiness
// report. "serving" means full service; "degraded" means the service is
// up but shedding load, running with an unhealthy optimizer (a circuit
// breaker not closed), or lagging the cluster statistics generation past
// the skew bound, so responses may carry Degraded decisions; "unhealthy"
// means the server is shutting down and new requests will be rejected.
//
// The epoch fields report revalidation lag so load balancers and the
// epoch coordinator can drain or deprioritize lagging nodes: Epoch is the
// node's installed statistics generation, ClusterEpoch the highest
// cluster generation observed (0 when no coordinator has spoken),
// EpochSkew their difference, and LaggingInstances the plan-cache anchors
// still awaiting revalidation, summed over templates.
type HealthStatus struct {
	Status           string            `json:"status"`
	Breakers         map[string]string `json:"breakers,omitempty"`
	Sheds            int64             `json:"sheds,omitempty"`
	Epoch            uint64            `json:"epoch,omitempty"`
	ClusterEpoch     uint64            `json:"clusterEpoch,omitempty"`
	EpochSkew        uint64            `json:"epochSkew,omitempty"`
	LaggingInstances int64             `json:"laggingInstances,omitempty"`
}

// health computes the current health state from breaker states, shed
// recency and cluster-epoch skew.
func (s *Server) health() HealthStatus {
	h := HealthStatus{Status: "serving", Sheds: s.shedTotal.Load()}
	if s.draining.Load() {
		h.Status = "unhealthy"
		return h
	}
	for _, v := range s.registered() {
		e := v.(*entry)
		st := e.scr.Stats()
		if st.BreakerState != pqo.BreakerClosed {
			if h.Breakers == nil {
				h.Breakers = make(map[string]string)
			}
			h.Breakers[e.name] = st.BreakerState.String()
			h.Status = "degraded"
		}
		if st.StatsEpoch > h.Epoch {
			h.Epoch = st.StatsEpoch
		}
		if st.ClusterEpoch > h.ClusterEpoch {
			h.ClusterEpoch = st.ClusterEpoch
		}
		h.LaggingInstances += st.LaggingInstances
		if e.scr.SkewLagging() {
			// Behind the cluster quorum past the skew bound: decisions are
			// being served flagged, so report degraded until catch-up.
			h.Status = "degraded"
		}
	}
	if h.ClusterEpoch > h.Epoch {
		h.EpochSkew = h.ClusterEpoch - h.Epoch
	}
	if last := s.lastShed.Load(); last != 0 &&
		time.Since(time.Unix(0, last)) < shedRecencyWindow {
		h.Status = "degraded"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	if h.Status == "unhealthy" {
		// Errors use the uniform envelope even here, so probes and humans
		// parse one shape everywhere.
		s.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "ErrUnhealthy",
			errors.New("server is shutting down"))
		return
	}
	writeJSON(w, h)
}

// servingGCPercent is the collector's pacing while a Server serves: a
// collection starts when the heap reaches three times the live heap
// rather than twice it (docs/PERF.md "GC pacing").
const servingGCPercent = 200

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown.
//
// Unless GOGC is set in the environment, Serve sets the process's GC
// percent to servingGCPercent. A plan-cache service's live heap is small,
// so at the runtime's default of 100 it collects often, and each mark
// phase takes a processor from serving. GOGC overrides the choice.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if !s.httpSrv.CompareAndSwap(nil, srv) {
		return errors.New("server: already serving")
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(servingGCPercent)
	}
	return srv.Serve(ln)
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown gracefully stops the server: it marks itself unhealthy (so
// load balancers stop routing here), drains in-flight requests (bounded
// by ctx) and then persists every plan cache when snapshots are enabled,
// so restarts resume with warm caches.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if srv := s.httpSrv.Swap(nil); srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	_, err := s.SaveSnapshots()
	return err
}

// SaveSnapshots exports every registered plan cache to
// Config.SnapshotDir and returns how many were written.
func (s *Server) SaveSnapshots() (int, error) {
	if s.cfg.SnapshotDir == "" {
		return 0, errors.New("server: snapshots disabled (no SnapshotDir)")
	}
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return 0, err
	}
	saved := 0
	for _, v := range s.registered() {
		e := v.(*entry)
		data, err := e.scr.Export()
		if err != nil {
			return saved, fmt.Errorf("server: exporting %s: %w", e.name, err)
		}
		if err := pqo.WriteSnapshotFile(s.snapshotPath(e.name), data); err != nil {
			return saved, err
		}
		saved++
	}
	return saved, nil
}

// PlanRequest is the body of POST /v1/plan. The handler parses it with a
// strict decoder (decodePlanRequest) that accepts every body json.Marshal
// produces for a PlanRequest and nothing encoding/json would read
// differently.
type PlanRequest struct {
	Template string    `json:"template"`
	SVector  []float64 `json:"sVector"`
}

// PlanResponse is the body of a successful POST /v1/plan. Degraded
// reports that the decision was served without the λ guarantee (the
// optimizer was unavailable); DegradedReason says why. Epoch is the id of
// the statistics epoch the decision's guarantee is stated against: the
// template's cost epoch, the newest epoch that changed a histogram its
// costs read (0 for epoch-less engines). It trails NodeEpoch for a
// template whose statistics later advances left alone, and while
// background revalidation catches the cache up after an advance.
// CostUnavailable marks a response whose estimatedCost could not be
// computed because recosting failed after the decision — the plan itself
// is still valid.
type PlanResponse struct {
	Via            string `json:"via"`
	Optimized      bool   `json:"optimized"`
	Shared         bool   `json:"shared,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	Epoch          uint64 `json:"epoch,omitempty"`
	// NodeEpoch is the node's installed statistics generation at response
	// time. It can run ahead of Epoch (the template's statistics did not
	// change since Epoch, or a lagging anchor's guarantee is stated
	// against the generation it was derived under) and is the value
	// cross-node skew is measured on: two healthy nodes must never differ
	// by more than the cluster skew bound.
	NodeEpoch       uint64  `json:"nodeEpoch,omitempty"`
	EstimatedCost   float64 `json:"estimatedCost"`
	CostUnavailable bool    `json:"costUnavailable,omitempty"`
	Plan            string  `json:"plan"`
	Fingerprint     string  `json:"fingerprint"`
	LatencyMicros   int64   `json:"latencyMicros"`
}

// errorBody is the JSON body of every /plan error response: the message
// plus the matching sentinel's name, so clients branch on a stable
// identifier instead of parsing prose.
type errorBody struct {
	Error    string `json:"error"`
	Sentinel string `json:"sentinel,omitempty"`
}

func writeError(w http.ResponseWriter, code int, sentinel string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Sentinel: sentinel})
}

// statusFor maps a Process error to its HTTP status and sentinel name.
// Every sentinel gets a distinct, intentional status: cancellation is the
// caller's deadline (504), exhausted budgets and open breakers are
// retryable capacity conditions (503), a template with no feasible plan
// is a semantic problem with the request (422), and a selectivity vector
// of the wrong width or outside (0, 1] is a bad request (400).
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, pqo.ErrInvalidSelectivity):
		return http.StatusBadRequest, "ErrBadRequest"
	case errors.Is(err, pqo.ErrCancelled):
		return http.StatusGatewayTimeout, "ErrCancelled"
	case errors.Is(err, pqo.ErrOptimizerTimeout):
		return http.StatusGatewayTimeout, "ErrOptimizerTimeout"
	case errors.Is(err, pqo.ErrBreakerOpen):
		// Checked before ErrUnavailable: degrade wraps the breaker error
		// inside ErrUnavailable when the cache is empty, and the more
		// specific sentinel wins.
		return http.StatusServiceUnavailable, "ErrBreakerOpen"
	case errors.Is(err, pqo.ErrUnavailable):
		return http.StatusServiceUnavailable, "ErrUnavailable"
	case errors.Is(err, pqo.ErrBudgetExhausted):
		return http.StatusServiceUnavailable, "ErrBudgetExhausted"
	case errors.Is(err, pqo.ErrNoPlan):
		return http.StatusUnprocessableEntity, "ErrNoPlan"
	case errors.Is(err, pqo.ErrOptimizerPanic):
		return http.StatusBadGateway, "ErrOptimizerPanic"
	default:
		return http.StatusInternalServerError, ""
	}
}

// acquireSlot claims an in-flight /plan slot, waiting up to
// Config.QueueWait. It reports whether the request may proceed; the
// caller must invoke release exactly once when it does.
func (s *Server) acquireSlot(ctx context.Context) (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, true
	default:
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return release, true
	case <-timer.C:
	case <-ctx.Done():
	}
	s.shedTotal.Add(1)
	s.lastShed.Store(time.Now().UnixNano())
	return nil, false
}

// retryAfterSeconds is the whole-second Retry-After hint attached to every
// shed (429) and unavailable (503) response: the configured base, rounded
// up to at least 1s, plus uniform jitter of up to one base interval — so
// the value lies in [base, 2·base]. Without jitter a quorum-wide withhold
// (every node refusing at once during an epoch advance) would synchronize
// all clients onto the same retry instant and turn recovery into a
// stampede.
func retryAfterSeconds(base time.Duration) int {
	b := int(math.Ceil(base.Seconds()))
	if b < 1 {
		b = 1
	}
	return b + rand.Intn(b+1)
}

// setRetryAfter stamps the jittered Retry-After header.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.RetryAfter)))
}

func (s *Server) shed(w http.ResponseWriter) {
	s.setRetryAfter(w)
	writeError(w, http.StatusTooManyRequests, "ErrOverloaded",
		errors.New("server: overloaded, request shed"))
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	// One pooled buffer holds the request body and then the response. The
	// decoded template name may alias it; nothing else does, and nothing
	// of it outlives this call.
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	body, err := appendBody((*buf)[:0], http.MaxBytesReader(w, r.Body, maxPlanBody))
	*buf = body
	if err != nil {
		writeBodyError(w, err)
		return
	}
	tpl, sv, err := decodePlanRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "ErrBadRequest", err)
		return
	}
	e := s.entry(string(tpl)) // a short name converts on the stack
	if e == nil {
		writeError(w, http.StatusNotFound, "ErrUnknownTemplate",
			fmt.Errorf("unknown template %q", tpl))
		return
	}
	release, ok := s.acquireSlot(r.Context())
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		rc := newRequestContext(ctx, s.cfg.RequestTimeout)
		defer rc.release()
		ctx = rc
	}

	start := time.Now()
	dec, err := e.scr.Process(ctx, sv)
	if err != nil {
		code, sentinel := statusFor(err)
		if code == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
		}
		writeError(w, code, sentinel, err)
		return
	}
	resp := PlanResponse{
		Via:            dec.Via.String(),
		Optimized:      dec.Optimized,
		Shared:         dec.Shared,
		Degraded:       dec.Degraded,
		DegradedReason: string(dec.DegradedReason),
		Epoch:          dec.Epoch,
		NodeEpoch:      e.scr.CurrentStatsEpoch(),
		Plan:           dec.Plan.Plan.String(),
		Fingerprint:    dec.Plan.Fingerprint(),
	}
	// The cost check and the optimizer already priced the plan; only
	// selectivity hits and fallbacks pay a Recost here. A decision in hand
	// is worth serving even when the engine cannot price it (it may be
	// the same fault that degraded the decision): mark the cost
	// unavailable rather than failing the request after the hard part
	// succeeded. A non-finite cost has no JSON form and counts as
	// unavailable too.
	cost, costErr := dec.Cost, error(nil)
	if !dec.HasCost {
		cost, costErr = e.eng.Recost(dec.Plan, sv)
	}
	if costErr == nil && !math.IsInf(cost, 0) && !math.IsNaN(cost) {
		resp.EstimatedCost = cost
	} else {
		resp.CostUnavailable = true
	}
	latency := time.Since(start)
	e.hist[histIndex(dec)].observe(latency)
	resp.LatencyMicros = latency.Microseconds()

	out := appendPlanResponse(body[:0], &resp)
	*buf = out
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
}

// requestContext bounds one /v1/plan request by Config.RequestTimeout
// without paying for the bound up front. context.WithTimeout arms a timer
// and registers a child with the request's context on every call, about
// 600 B of garbage: on a hot-read load that is 7% of a request's
// allocation, and so of the collector's work. A cache hit only calls Err,
// which requestContext answers from the clock; the real deadline context
// is armed the first time anything waits on Done (a miss waiting for the
// optimizer or for another caller's flight).
type requestContext struct {
	context.Context // the request's own context
	deadline        time.Time

	once   sync.Once
	armed  atomic.Bool
	timed  context.Context // the armed deadline context, set once
	cancel context.CancelFunc
}

func newRequestContext(parent context.Context, timeout time.Duration) *requestContext {
	return &requestContext{Context: parent, deadline: time.Now().Add(timeout)}
}

func (c *requestContext) Deadline() (time.Time, bool) {
	if d, ok := c.Context.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

func (c *requestContext) Done() <-chan struct{} {
	c.once.Do(func() {
		c.timed, c.cancel = context.WithDeadline(c.Context, c.deadline)
		c.armed.Store(true)
	})
	return c.timed.Done()
}

// Err agrees with Done once it is armed; before that nothing waits on
// Done, and Err reports the parent's error or the passed deadline.
func (c *requestContext) Err() error {
	if c.armed.Load() {
		return c.timed.Err()
	}
	if err := c.Context.Err(); err != nil {
		return err
	}
	// deadline carries a monotonic reading, so this reads one clock where
	// time.Now reads two.
	if time.Until(c.deadline) <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// release stops the armed deadline's timer, if Done armed one.
func (c *requestContext) release() {
	if c.armed.Load() {
		c.cancel()
	}
}

// histIndex maps a decision to its latency histogram: degraded fallbacks
// and shared optimizer results are tracked separately from the check
// that produced them.
func histIndex(dec *pqo.Decision) int {
	if dec.Degraded {
		return histDegraded
	}
	if dec.Shared {
		return histShared
	}
	switch dec.Via {
	case pqo.ViaSelectivity:
		return histSelectivity
	case pqo.ViaCost:
		return histCost
	default:
		return histOptimizer
	}
}

// TemplateInfo is one row of GET /templates.
type TemplateInfo struct {
	Name       string `json:"name"`
	SQL        string `json:"sql,omitempty"`
	Dimensions int    `json:"dimensions"`
}

func (s *Server) handleTemplates(w http.ResponseWriter, _ *http.Request) {
	entries := s.registered()
	out := make([]TemplateInfo, 0, len(entries))
	for _, v := range entries {
		e := v.(*entry)
		out = append(out, TemplateInfo{Name: e.name, SQL: e.sql, Dimensions: e.eng.Dimensions()})
	}
	writeJSON(w, out)
}

// StatsRow is one row of GET /stats: the paper's metrics plus the
// concurrency counters for one template.
type StatsRow struct {
	Template          string  `json:"template"`
	Instances         int64   `json:"instances"`
	NumOpt            int64   `json:"numOpt"`
	OptPct            float64 `json:"optPct"`
	SharedOptCalls    int64   `json:"sharedOptCalls"`
	ReadPathHits      int64   `json:"readPathHits"`
	WritePathHits     int64   `json:"writePathHits"`
	Plans             int     `json:"plans"`
	MemoryBytes       int64   `json:"memoryBytes"`
	Recosts           int64   `json:"getPlanRecosts"`
	Violations        int64   `json:"bcgViolations"`
	WriteLockWaitUS   int64   `json:"writeLockWaitMicros"`
	WriteDomains      int     `json:"writeDomains"`
	PublishTotal      int64   `json:"publishTotal"`
	Degraded          int64   `json:"degradedDecisions"`
	ReadPathErrors    int64   `json:"readPathErrors"`
	BreakerState      string  `json:"breakerState"`
	BreakerOpens      int64   `json:"breakerOpens"`
	InjectedFaults    int64   `json:"injectedFaults"`
	StatsEpoch        uint64  `json:"statsEpoch"`
	LaggingInstances  int64   `json:"laggingInstances"`
	RevalidatedPlans  int64   `json:"revalidatedPlans"`
	RevalDemoted      int64   `json:"revalDemoted"`
	RevalDropped      int64   `json:"revalDroppedInstances"`
	RevalFailed       int64   `json:"revalFailed"`
	EpochLagFallbacks int64   `json:"epochLagFallbacks"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	entries := s.registered()
	out := make([]StatsRow, 0, len(entries))
	for _, v := range entries {
		e := v.(*entry)
		st := e.scr.Stats()
		pct := 0.0
		if st.Instances > 0 {
			pct = float64(st.OptCalls) / float64(st.Instances) * 100
		}
		out = append(out, StatsRow{
			Template: e.name, Instances: st.Instances, NumOpt: st.OptCalls,
			OptPct: pct, SharedOptCalls: st.SharedOptCalls,
			ReadPathHits: st.ReadPathHits, WritePathHits: st.WritePathHits,
			Plans: st.CurPlans, MemoryBytes: st.MemoryBytes,
			Recosts: st.GetPlanRecosts, Violations: st.Violations,
			WriteLockWaitUS:   st.WriteLockWait.Microseconds(),
			WriteDomains:      st.WriteDomains,
			PublishTotal:      st.PublishTotal,
			Degraded:          st.DegradedDecisions,
			ReadPathErrors:    st.ReadPathErrors,
			BreakerState:      st.BreakerState.String(),
			BreakerOpens:      st.BreakerOpens,
			InjectedFaults:    st.InjectedFaults,
			StatsEpoch:        st.StatsEpoch,
			LaggingInstances:  st.LaggingInstances,
			RevalidatedPlans:  st.RevalidatedPlans,
			RevalDemoted:      st.RevalDemoted,
			RevalDropped:      st.RevalDroppedInstances,
			RevalFailed:       st.RevalFailed,
			EpochLagFallbacks: st.EpochLagFallbacks,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	saved, err := s.SaveSnapshots()
	if err != nil {
		if s.cfg.SnapshotDir == "" {
			writeError(w, http.StatusConflict, "ErrSnapshotsDisabled", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	writeJSON(w, map[string]int{"snapshots": saved})
}

// writeJSON encodes v before writing anything, so a value encoding/json
// refuses (a NaN, say) answers 500 with the error envelope instead of a
// 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 ErrBodyTooLarge past the route's limit, else 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "ErrBodyTooLarge",
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "ErrBadRequest", err)
}
