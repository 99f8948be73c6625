package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/pqotest"
	"repro/pqo"
)

// toggleEngine wraps the synthetic engine with switchable faults and an
// optional gate that parks Optimize calls until released — the substrate
// for shedding and shutdown-under-load tests.
type toggleEngine struct {
	*pqotest.Engine
	failOpt    atomic.Bool
	failRecost atomic.Bool
	inOptimize atomic.Int64

	mu   sync.Mutex
	gate chan struct{}
}

var errToggleOpt = errors.New("toggle: optimizer down")
var errToggleRecost = errors.New("toggle: recost down")

func (e *toggleEngine) setGate() chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gate = make(chan struct{})
	return e.gate
}

func (e *toggleEngine) currentGate() chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gate
}

func (e *toggleEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	e.inOptimize.Add(1)
	defer e.inOptimize.Add(-1)
	if gate := e.currentGate(); gate != nil {
		<-gate
	}
	if e.failOpt.Load() {
		return nil, 0, errToggleOpt
	}
	return e.Engine.Optimize(sv)
}

func (e *toggleEngine) Recost(cp *engine.CachedPlan, sv []float64) (float64, error) {
	if e.failRecost.Load() {
		return 0, errToggleRecost
	}
	return e.Engine.Recost(cp, sv)
}

// twoPlane builds the deterministic 2-d two-plan engine used by the core
// tests: plan A cheap in dimension 0, plan B cheap in dimension 1, so a
// tight λ predictably forces mid-space instances to the optimizer.
func twoPlane(t testing.TB) *toggleEngine {
	t.Helper()
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "A", Const: 1, Linear: []float64{2, 100}},
		{Name: "B", Const: 1, Linear: []float64{100, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &toggleEngine{Engine: eng}
}

// newResilientServer registers template "t1" over a toggleEngine with the
// given extra SCR options (λ=1.05 base, so distant instances miss).
func newResilientServer(t testing.TB, cfg Config, opts ...pqo.Option) (*Server, *toggleEngine) {
	t.Helper()
	eng := twoPlane(t)
	scr, err := pqo.New(eng, append([]pqo.Option{pqo.WithLambda(1.05)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.Register("t1", "SELECT synthetic", eng, scr); err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func warmServer(t testing.TB, h http.Handler) {
	t.Helper()
	for _, sv := range [][]float64{{0.01, 0.9}, {0.9, 0.01}} {
		if w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("warming at %v: status %d: %s", sv, w.Code, w.Body)
		}
	}
}

func decodeError(t testing.TB, w *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body is not JSON: %q", w.Body)
	}
	return eb
}

// TestStatusForMapping pins the full sentinel → HTTP status table,
// including wrapped combinations.
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err      error
		code     int
		sentinel string
	}{
		{pqo.ErrCancelled, http.StatusGatewayTimeout, "ErrCancelled"},
		{pqo.ErrOptimizerTimeout, http.StatusGatewayTimeout, "ErrOptimizerTimeout"},
		{pqo.ErrBreakerOpen, http.StatusServiceUnavailable, "ErrBreakerOpen"},
		{pqo.ErrUnavailable, http.StatusServiceUnavailable, "ErrUnavailable"},
		{pqo.ErrBudgetExhausted, http.StatusServiceUnavailable, "ErrBudgetExhausted"},
		{pqo.ErrNoPlan, http.StatusUnprocessableEntity, "ErrNoPlan"},
		{pqo.ErrOptimizerPanic, http.StatusBadGateway, "ErrOptimizerPanic"},
		{errors.New("mystery"), http.StatusInternalServerError, ""},
		// degrade wraps the trigger inside ErrUnavailable when the cache is
		// empty; the more specific sentinel must win.
		{fmt.Errorf("%w (cause: %w)", pqo.ErrUnavailable, pqo.ErrBreakerOpen),
			http.StatusServiceUnavailable, "ErrBreakerOpen"},
		{fmt.Errorf("wrap: %w", pqo.ErrNoPlan), http.StatusUnprocessableEntity, "ErrNoPlan"},
	}
	for _, c := range cases {
		code, sentinel := statusFor(c.err)
		if code != c.code || sentinel != c.sentinel {
			t.Errorf("statusFor(%v) = %d %q, want %d %q", c.err, code, sentinel, c.code, c.sentinel)
		}
	}
}

// noPlanEngine optimizes to no plan without error (an engine that cannot
// produce a plan for the instance).
type noPlanEngine struct{ *pqotest.Engine }

func (e *noPlanEngine) Optimize([]float64) (*engine.CachedPlan, float64, error) {
	return nil, 0, nil
}

func TestPlanErrorSentinels(t *testing.T) {
	t.Run("ErrNoPlan-422", func(t *testing.T) {
		eng := &noPlanEngine{Engine: twoPlane(t).Engine}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{})
		if err := s.Register("t1", "", eng, scr); err != nil {
			t.Fatal(err)
		}
		w, _ := postPlan(t, s.Handler(), PlanRequest{Template: "t1", SVector: []float64{0.5, 0.5}})
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", w.Code)
		}
		if eb := decodeError(t, w); eb.Sentinel != "ErrNoPlan" {
			t.Errorf("sentinel = %q, want ErrNoPlan", eb.Sentinel)
		}
	})

	t.Run("ErrBreakerOpen-503", func(t *testing.T) {
		// Breaker without degraded fallback: the first failure surfaces the
		// engine error (500), the second is rejected by the open breaker.
		s, eng := newResilientServer(t, Config{}, pqo.WithCircuitBreaker(1, time.Minute))
		h := s.Handler()
		eng.failOpt.Store(true)
		w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.5, 0.5}})
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("first failure status = %d, want 500", w.Code)
		}
		w, _ = postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.6, 0.6}})
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("breaker-open status = %d, want 503", w.Code)
		}
		if eb := decodeError(t, w); eb.Sentinel != "ErrBreakerOpen" {
			t.Errorf("sentinel = %q, want ErrBreakerOpen", eb.Sentinel)
		}
	})

	t.Run("ErrCancelled-504", func(t *testing.T) {
		// A nanosecond budget expires before Process starts; the request
		// must map to 504 with the ErrCancelled sentinel. (The engine is
		// not gated: without an optimizer deadline a flight leader runs
		// its optimizer call to completion by design.)
		s, _ := newResilientServer(t, Config{RequestTimeout: time.Nanosecond})
		w, _ := postPlan(t, s.Handler(), PlanRequest{Template: "t1", SVector: []float64{0.5, 0.5}})
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", w.Code)
		}
		if eb := decodeError(t, w); eb.Sentinel != "ErrCancelled" {
			t.Errorf("sentinel = %q, want ErrCancelled", eb.Sentinel)
		}
	})
}

func TestDegradedResponseFields(t *testing.T) {
	s, eng := newResilientServer(t, Config{}, pqo.WithDegradedFallback())
	h := s.Handler()
	warmServer(t, h)
	eng.failOpt.Store(true)

	w, resp := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.5, 0.45}})
	if w.Code != http.StatusOK {
		t.Fatalf("degraded request status = %d: %s", w.Code, w.Body)
	}
	if !resp.Degraded || resp.DegradedReason != string(pqo.DegradedOptimizerError) {
		t.Fatalf("response = %+v, want degraded optimizer-error", resp)
	}
	if resp.Via != "degraded-fallback" || resp.CostUnavailable {
		t.Errorf("via=%q costUnavailable=%v, want degraded-fallback with a cost", resp.Via, resp.CostUnavailable)
	}

	// Break recosting too: the decision still serves, with the cost
	// explicitly marked unavailable instead of a 500.
	eng.failRecost.Store(true)
	w, resp = postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.52, 0.44}})
	if w.Code != http.StatusOK {
		t.Fatalf("cost-unavailable request status = %d: %s", w.Code, w.Body)
	}
	if !resp.Degraded || !resp.CostUnavailable {
		t.Fatalf("response = %+v, want degraded with costUnavailable", resp)
	}

	// Observability: the degraded path shows up in /stats and /metrics.
	wm := httptest.NewRecorder()
	h.ServeHTTP(wm, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := wm.Body.String()
	if got := promValue(t, body, `pqo_degraded_total{template="t1"}`); got < 2 {
		t.Errorf("pqo_degraded_total = %d, want >= 2", got)
	}
	if got := promValue(t, body, `pqo_check_latency_seconds_count{template="t1",via="degraded"}`); got < 2 {
		t.Errorf("degraded latency histogram count = %d, want >= 2", got)
	}
}

func TestLoadShedding(t *testing.T) {
	s, eng := newResilientServer(t, Config{
		MaxInFlight: 1,
		QueueWait:   10 * time.Millisecond,
		RetryAfter:  2 * time.Second,
	})
	h := s.Handler()
	gate := eng.setGate()

	// Park one request inside the optimizer: it holds the only slot.
	blocked := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.5, 0.5}})
		blocked <- w
	}()
	deadline := time.Now().Add(2 * time.Second)
	for eng.inOptimize.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the optimizer")
		}
		time.Sleep(time.Millisecond)
	}

	// The next request cannot get a slot within QueueWait: shed.
	w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.2, 0.7}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", w.Code)
	}
	// Retry-After is jittered in [base, 2·base] whole seconds so a herd
	// of shed clients does not come back in lockstep.
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < 2 || ra > 4 {
		t.Errorf("Retry-After = %q, want an integer in [2, 4]", w.Header().Get("Retry-After"))
	}
	if eb := decodeError(t, w); eb.Sentinel != "ErrOverloaded" {
		t.Errorf("sentinel = %q, want ErrOverloaded", eb.Sentinel)
	}

	// Shedding shows up in /healthz (degraded) and /metrics.
	if hs := s.health(); hs.Status != "degraded" || hs.Sheds != 1 {
		t.Errorf("health = %+v, want degraded with 1 shed", hs)
	}
	wm := httptest.NewRecorder()
	h.ServeHTTP(wm, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if got := promValue(t, wm.Body.String(), "pqo_shed_total"); got != 1 {
		t.Errorf("pqo_shed_total = %d, want 1", got)
	}

	// Release the slot: service returns to normal and the freed slot is
	// reusable.
	close(gate)
	if bw := <-blocked; bw.Code != http.StatusOK {
		t.Fatalf("parked request finished with %d: %s", bw.Code, bw.Body)
	}
	if w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.2, 0.7}}); w.Code != http.StatusOK {
		t.Fatalf("post-overload request status = %d", w.Code)
	}
}

func TestHealthzStates(t *testing.T) {
	t.Run("serving", func(t *testing.T) {
		s, _ := newResilientServer(t, Config{})
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d", w.Code)
		}
		var hs HealthStatus
		if err := json.Unmarshal(w.Body.Bytes(), &hs); err != nil || hs.Status != "serving" {
			t.Fatalf("healthz = %s (err %v), want serving", w.Body, err)
		}
	})

	t.Run("degraded-breaker", func(t *testing.T) {
		s, eng := newResilientServer(t, Config{},
			pqo.WithDegradedFallback(), pqo.WithCircuitBreaker(1, time.Minute))
		h := s.Handler()
		warmServer(t, h)
		eng.failOpt.Store(true)
		if w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.5, 0.45}}); w.Code != http.StatusOK {
			t.Fatalf("degraded request status = %d", w.Code)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("degraded healthz status = %d, want 200", w.Code)
		}
		var hs HealthStatus
		if err := json.Unmarshal(w.Body.Bytes(), &hs); err != nil {
			t.Fatal(err)
		}
		if hs.Status != "degraded" || hs.Breakers["t1"] != "open" {
			t.Fatalf("healthz = %+v, want degraded with t1 breaker open", hs)
		}
	})

	t.Run("degraded-epoch-skew", func(t *testing.T) {
		s, _ := adminSystem(t)
		h := s.Handler()
		// A coordinator stamp on any route teaches the node it is behind:
		// cluster generation 5 against an installed epoch of 1.
		req := httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil)
		req.Header.Set(ClusterEpochHeader, "5")
		h.ServeHTTP(httptest.NewRecorder(), req)

		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("skewed healthz status = %d, want 200", w.Code)
		}
		var hs HealthStatus
		if err := json.Unmarshal(w.Body.Bytes(), &hs); err != nil {
			t.Fatal(err)
		}
		if hs.Status != "degraded" || hs.Epoch != 1 || hs.ClusterEpoch != 5 || hs.EpochSkew != 4 {
			t.Fatalf("healthz = %+v, want degraded epoch 1 cluster 5 skew 4", hs)
		}
		// Decisions served while past the bound carry the epoch-skew flag.
		pw, plan := postPlan(t, h, PlanRequest{Template: "q2", SVector: []float64{0.4, 0.3}})
		if pw.Code != http.StatusOK {
			t.Fatalf("plan under skew status = %d: %s", pw.Code, pw.Body)
		}
		if !plan.Degraded || plan.DegradedReason != string(pqo.DegradedEpochSkew) {
			t.Fatalf("plan under skew = %+v, want flagged %s", plan, pqo.DegradedEpochSkew)
		}
	})

	t.Run("unhealthy-draining", func(t *testing.T) {
		s, _ := newResilientServer(t, Config{})
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz status = %d, want 503", w.Code)
		}
	})
}

// TestRetryAfterJitterBounds pins the jittered Retry-After hint to its
// documented envelope [base, 2·base] (with a 1s floor), so shed clients
// spread out instead of stampeding back in lockstep after a quorum-wide
// withhold.
func TestRetryAfterJitterBounds(t *testing.T) {
	cases := []struct {
		base   time.Duration
		lo, hi int
	}{
		{0, 1, 2},
		{500 * time.Millisecond, 1, 2},
		{2 * time.Second, 2, 4},
		{5 * time.Second, 5, 10},
	}
	for _, tc := range cases {
		seen := make(map[int]bool)
		for i := 0; i < 400; i++ {
			got := retryAfterSeconds(tc.base)
			if got < tc.lo || got > tc.hi {
				t.Fatalf("retryAfterSeconds(%v) = %d, want in [%d, %d]", tc.base, got, tc.lo, tc.hi)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Errorf("retryAfterSeconds(%v) never jittered: only %v over 400 draws", tc.base, seen)
		}
	}
}

// TestShutdownUnderLoad drives real TCP connections: requests parked
// inside the optimizer while Shutdown is called must drain to 200s, the
// snapshot must be persisted afterwards, and new connections must be
// refused — no dropped persists, no panics.
func TestShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s, eng := newResilientServer(t, Config{SnapshotDir: dir})
	gate := eng.setGate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	const load = 4
	codes := make(chan int, load)
	for i := 0; i < load; i++ {
		sv := []float64{0.1 + float64(i)*0.2, 0.8 - float64(i)*0.15}
		go func() {
			body, _ := json.Marshal(PlanRequest{Template: "t1", SVector: sv})
			resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.inOptimize.Load() < load {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests reached the optimizer", eng.inOptimize.Load(), load)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- s.Shutdown(ctx) }()

	// The listener closes promptly even while requests drain.
	dialDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(url + "/v1/healthz"); err != nil {
			break
		}
		if time.Now().After(dialDeadline) {
			t.Fatal("server still accepting new connections during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the parked requests: every one must complete successfully.
	close(gate)
	for i := 0; i < load; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("in-flight request %d finished with %d, want 200", i, code)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	// The drained caches were persisted (no dropped persists).
	if _, err := os.Stat(dir + "/t1.json"); err != nil {
		t.Errorf("snapshot after drain: %v", err)
	}
}
