package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/pqotest"
	"repro/pqo"
)

// newTestServer builds a Server over one synthetic 2-dimensional template
// named "t1".
func newTestServer(t testing.TB, cfg Config) (*Server, *pqotest.Engine) {
	t.Helper()
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(7)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.Register("t1", "SELECT synthetic", eng, scr); err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func postPlan(t testing.TB, h http.Handler, req PlanRequest) (*httptest.ResponseRecorder, *PlanResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding /plan response: %v", err)
	}
	return w, &resp
}

func TestPlanEndpoint(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	h := s.Handler()

	w, resp := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	if w.Code != http.StatusOK {
		t.Fatalf("first /plan: status %d, body %s", w.Code, w.Body)
	}
	if resp.Via != "optimizer" || !resp.Optimized {
		t.Errorf("cold cache should optimize, got via=%s optimized=%v", resp.Via, resp.Optimized)
	}
	if resp.Fingerprint == "" || resp.Plan == "" || resp.EstimatedCost <= 0 {
		t.Errorf("incomplete response: %+v", resp)
	}

	w, resp = postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	if w.Code != http.StatusOK {
		t.Fatalf("second /plan: status %d", w.Code)
	}
	if resp.Via != "selectivity-check" {
		t.Errorf("identical repeat should hit the selectivity check, got via=%s", resp.Via)
	}
	if got := eng.OptimizeCalls(); got != 1 {
		t.Errorf("optimizer calls = %d, want 1", got)
	}

	cases := []struct {
		name string
		req  *http.Request
		want int
	}{
		{"GET not allowed", httptest.NewRequest(http.MethodGet, "/v1/plan", nil), http.StatusMethodNotAllowed},
		{"bad JSON", httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader("{")), http.StatusBadRequest},
		{"unknown template", httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"template":"nope","sVector":[0.1,0.2]}`)), http.StatusNotFound},
		{"wrong dimensions", httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"template":"t1","sVector":[0.1]}`)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, tc.req)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.want)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	// A 1ns budget is always expired by the time Process checks its
	// context, so the request must fail as a timeout, not a 400.
	s, _ := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w, _ := postPlan(t, s.Handler(), PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want %d (body %s)", w.Code, http.StatusGatewayTimeout, w.Body)
	}
}

// TestRequestContext pins the lazily armed request deadline: Err answers
// from the clock before anything waits, Done closes at the deadline with
// Err agreeing, the parent's cancellation passes through, and the earlier
// of the two deadlines wins.
func TestRequestContext(t *testing.T) {
	rc := newRequestContext(context.Background(), 20*time.Millisecond)
	if err := rc.Err(); err != nil {
		t.Fatalf("fresh Err = %v", err)
	}
	if rc.armed.Load() {
		t.Fatal("Err armed the deadline timer")
	}
	select {
	case <-rc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done did not close at the deadline")
	}
	if err := rc.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done = %v, want DeadlineExceeded", err)
	}
	rc.release()

	expired := newRequestContext(context.Background(), time.Nanosecond)
	time.Sleep(time.Millisecond)
	if err := expired.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unarmed Err past the deadline = %v", err)
	}
	expired.release()

	parent, cancel := context.WithCancel(context.Background())
	rc = newRequestContext(parent, time.Hour)
	done := rc.Done()
	cancel()
	<-done
	if err := rc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after parent cancel = %v, want Canceled", err)
	}
	rc.release()

	soon := time.Now().Add(time.Minute)
	pctx, pcancel := context.WithDeadline(context.Background(), soon)
	defer pcancel()
	if d, ok := newRequestContext(pctx, time.Hour).Deadline(); !ok || !d.Equal(soon) {
		t.Fatalf("Deadline = %v, %v; want the parent's %v", d, ok, soon)
	}
}

func TestTemplatesStatsMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	vectors := [][]float64{{0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}, {0.8, 0.9}}
	for _, sv := range vectors {
		if w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("/plan: status %d", w.Code)
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/templates", nil))
	var tpls []TemplateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &tpls); err != nil {
		t.Fatalf("/templates: %v", err)
	}
	if len(tpls) != 1 || tpls[0].Name != "t1" || tpls[0].Dimensions != 2 {
		t.Errorf("/templates = %+v", tpls)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var rows []StatsRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("/stats rows = %d", len(rows))
	}
	st := rows[0]
	if st.Instances != int64(len(vectors)) {
		t.Errorf("instances = %d, want %d", st.Instances, len(vectors))
	}
	if st.NumOpt == 0 || st.ReadPathHits == 0 {
		t.Errorf("expected optimizer calls and read-path hits, got %+v", st)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		`pqo_instances_total{template="t1"} 4`,
		`pqo_opt_calls_total{template="t1"}`,
		`pqo_read_path_hits_total{template="t1"}`,
		`pqo_check_latency_seconds_bucket{template="t1",via="optimizer",le="+Inf"}`,
		`pqo_check_latency_seconds_count{template="t1",via="selectivity-check"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The per-via histogram counts must account for every /plan request.
	total := int64(0)
	for _, via := range checkLabels {
		total += promValue(t, body, fmt.Sprintf(`pqo_check_latency_seconds_count{template="t1",via=%q}`, via))
	}
	if total != int64(len(vectors)) {
		t.Errorf("histogram total = %d, want %d", total, len(vectors))
	}
}

// promValue extracts the value of a series line from Prometheus text.
func promValue(t *testing.T, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found", series)
	return 0
}

// TestSnapshotRoundTrip uses a real template engine (the synthetic test
// engine cannot rehydrate plans) and verifies the cache survives a
// restart via POST /snapshot + Register-time restore.
func TestSnapshotRoundTrip(t *testing.T) {
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := pqo.ParseTemplate("q", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	build := func() (*Server, *pqo.SCR) {
		eng, err := sys.EngineFor(tpl)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{SnapshotDir: dir})
		if err := s.Register("q", tpl.SQL(), eng, scr); err != nil {
			t.Fatal(err)
		}
		return s, scr
	}

	s1, scr1 := build()
	h := s1.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}} {
		if w, _ := postPlan(t, h, PlanRequest{Template: "q", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("/plan: status %d body %s", w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/snapshot: status %d body %s", w.Code, w.Body)
	}
	if _, err := os.Stat(dir + "/q.json"); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	wantPlans := scr1.Stats().CurPlans

	s2, scr2 := build()
	if got := scr2.Stats().CurPlans; got != wantPlans {
		t.Errorf("restored plans = %d, want %d", got, wantPlans)
	}
	// A previously-seen instance should now hit the restored cache.
	w2, resp := postPlan(t, s2.Handler(), PlanRequest{Template: "q", SVector: []float64{0.02, 0.1}})
	if w2.Code != http.StatusOK {
		t.Fatalf("/plan on restored server: status %d", w2.Code)
	}
	if resp.Via == "optimizer" {
		t.Errorf("restored cache should serve without optimizing, got via=%s", resp.Via)
	}
}

// TestEnvPoolMetrics drives a real template engine through /plan and
// asserts /metrics reports the engine's pooled selectivity environments:
// every /plan response recosts the decided plan through one.
func TestEnvPoolMetrics(t *testing.T) {
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := pqo.ParseTemplate("q", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("q", tpl.SQL(), eng, scr); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w, _ := postPlan(t, h, PlanRequest{Template: "q", SVector: []float64{0.02, 0.1}}); w.Code != http.StatusOK {
			t.Fatalf("/plan %d: status %d body %s", i, w.Code, w.Body)
		}
	}

	gets, _ := eng.EnvPoolCounters()
	if gets == 0 {
		t.Fatal("env pool gets = 0, want > 0")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if got := promValue(t, w.Body.String(), `pqo_env_pool_gets_total{template="q"}`); got != gets {
		t.Errorf("/metrics env pool gets = %d, want %d", got, gets)
	}
}

func TestSnapshotDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("/snapshot without SnapshotDir: status %d, want %d", w.Code, http.StatusConflict)
	}
}

func TestRegisterValidation(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	scr, err := pqo.New(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("", "", eng, scr); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Register("t2", "", nil, scr); err == nil {
		t.Error("nil engine accepted")
	}
	if err := s.Register("t1", "", eng, scr); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestRegisterDuplicateLeavesSCRUntouched registers a template whose
// snapshot is on disk, then registers the same name again with a fresh
// SCR: the duplicate must be rejected before the snapshot is imported
// into the second SCR. A real template engine is used because the
// synthetic one cannot rehydrate plans, so no import would happen.
func TestRegisterDuplicateLeavesSCRUntouched(t *testing.T) {
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := pqo.ParseTemplate("q", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	newSCR := func() *pqo.SCR {
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		return scr
	}
	s := New(Config{SnapshotDir: t.TempDir()})
	if err := s.Register("q", tpl.SQL(), eng, newSCR()); err != nil {
		t.Fatal(err)
	}
	if w, _ := postPlan(t, s.Handler(), PlanRequest{Template: "q", SVector: []float64{0.02, 0.1}}); w.Code != http.StatusOK {
		t.Fatalf("/plan: status %d body %s", w.Code, w.Body)
	}
	if n, err := s.SaveSnapshots(); err != nil || n != 1 {
		t.Fatalf("SaveSnapshots = %d, %v; want 1 snapshot", n, err)
	}

	dup := newSCR()
	if err := s.Register("q", tpl.SQL(), eng, dup); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if got := dup.Stats().CurPlans; got != 0 {
		t.Errorf("rejected registration imported %d plans into its SCR, want 0", got)
	}
}

func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{SnapshotDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	body, _ := json.Marshal(PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan over TCP: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	// Shutdown with SnapshotDir set must flush the caches.
	if _, err := os.Stat(dir + "/t1.json"); err != nil {
		t.Errorf("shutdown snapshot: %v", err)
	}
	if _, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body)); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestServeSetsGCPercent: Serve paces the collector at servingGCPercent
// unless the operator set GOGC, whose value then stands.
func TestServeSetsGCPercent(t *testing.T) {
	prev := debug.SetGCPercent(100)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	for _, tc := range []struct {
		gogc string
		want int
	}{
		{"", servingGCPercent},
		{"150", 150},
	} {
		t.Setenv("GOGC", tc.gogc)
		if tc.gogc != "" {
			debug.SetGCPercent(tc.want)
		}
		s, _ := newTestServer(t, Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- s.Serve(ln) }()
		// An answered request means Serve has run past its GC setting.
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		cancel()
		<-serveErr
		if got := debug.SetGCPercent(100); got != tc.want {
			t.Errorf("GOGC=%q: GC percent after Serve = %d, want %d", tc.gogc, got, tc.want)
		}
	}
}

// TestPlanRejectsOutOfRangeSelectivity: a selectivity outside (0, 1] is
// a bad request. Were it served, the plan cache would keep it as an
// anchor that every later selectivity check rejects, failing every
// request that reaches the instance scan.
func TestPlanRejectsOutOfRangeSelectivity(t *testing.T) {
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := pqo.ParseTemplate("q1", `SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("q1", tpl.SQL(), eng, scr); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, sv := range [][]float64{{0, 0.5}, {-0.1, 0.5}, {0.5, 1.5}} {
		w, _ := postPlan(t, h, PlanRequest{Template: "q1", SVector: sv})
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"sentinel":"ErrBadRequest"`) {
			t.Errorf("sVector %v: status %d body %s, want 400 ErrBadRequest", sv, w.Code, w.Body)
		}
	}
	if n := scr.NumInstances(); n != 0 {
		t.Fatalf("rejected vectors left %d instances in the cache", n)
	}
	for _, sv := range [][]float64{{0.2, 0.3}, {0.01, 0.9}, {0.5, 0.5}, {1, 1}} {
		if w, _ := postPlan(t, h, PlanRequest{Template: "q1", SVector: sv}); w.Code != http.StatusOK {
			t.Errorf("sVector %v after the rejected ones: status %d body %s", sv, w.Code, w.Body)
		}
	}
}
