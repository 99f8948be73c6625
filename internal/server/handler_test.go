package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/pqotest"
	"repro/pqo"
)

// replayBody is a request body that rewinds without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// sinkWriter is a ResponseWriter that reuses its header map and keeps
// the last body written.
type sinkWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// planCaller replays one /v1/plan body through a handler in process,
// reusing the request and writer, so what it measures is the handler's
// own work.
type planCaller struct {
	h    http.Handler
	req  *http.Request
	body replayBody
	data []byte
	w    sinkWriter
}

func newPlanCaller(h http.Handler, preq PlanRequest) *planCaller {
	data, _ := json.Marshal(preq)
	c := &planCaller{h: h, data: data, w: sinkWriter{h: http.Header{}}}
	c.req = httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	return c
}

// call serves the request once and returns the status.
func (c *planCaller) call() int {
	c.body.Reset(c.data)
	c.req.Body = &c.body
	clear(c.w.h)
	c.w.code, c.w.body = 0, c.w.body[:0]
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.code
}

// response serves the request once and decodes the answer.
func (c *planCaller) response(t testing.TB) PlanResponse {
	t.Helper()
	if code := c.call(); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, c.w.body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(c.w.body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlanHandlerAllocBudget pins the allocations of one /v1/plan
// selectivity hit on a warm cache, request decode to response write.
func TestPlanHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, _ := newTestServer(t, Config{})
	c := newPlanCaller(s.Handler(), PlanRequest{Template: "t1", SVector: []float64{0.3, 0.05}})
	if resp := c.response(t); resp.Via != "optimizer" {
		t.Fatalf("cold request via %s", resp.Via)
	}
	if resp := c.response(t); resp.Via != "selectivity-check" {
		t.Fatalf("repeat via %s, want selectivity-check", resp.Via)
	}
	if got := c.w.h.Get("Content-Length"); got != strconv.Itoa(len(c.w.body)) {
		t.Errorf("Content-Length %q for a %d-byte body", got, len(c.w.body))
	}

	const budget = 20
	allocs := testing.AllocsPerRun(200, func() {
		if code := c.call(); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	t.Logf("handler allocations per selectivity hit: %.1f", allocs)
	if allocs > budget {
		t.Errorf("/v1/plan selectivity hit allocates %.1f per request, budget %d", allocs, budget)
	}
}

// infRecostEngine prices every plan correctly when optimizing but
// answers +Inf to Recost.
type infRecostEngine struct{ *pqotest.Engine }

func (e infRecostEngine) Recost(*engine.CachedPlan, []float64) (float64, error) {
	return math.Inf(1), nil
}

// TestNonFiniteCostIsUnavailable: encoding/json has no form for ±Inf or
// NaN, so such a cost must be reported as unavailable, never as a 200
// with an empty body.
func TestNonFiniteCostIsUnavailable(t *testing.T) {
	base, err := pqotest.NewEngine(2, []pqotest.PlanSpec{{Name: "p", Const: 1, Linear: []float64{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	eng := infRecostEngine{base}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("inf", "", eng, scr); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req := PlanRequest{Template: "inf", SVector: []float64{0.2, 0.3}}
	if _, resp := postPlan(t, h, req); resp == nil || resp.Via != "optimizer" || resp.CostUnavailable {
		t.Fatalf("cold request: %+v, want an optimizer decision with its cost", resp)
	}
	// The selectivity hit has no cost of its own, so the handler recosts
	// and gets +Inf.
	w, resp := postPlan(t, h, req)
	if w.Code != http.StatusOK || resp == nil {
		t.Fatalf("status %d, body %q", w.Code, w.Body)
	}
	if resp.Via != "selectivity-check" || !resp.CostUnavailable || resp.EstimatedCost != 0 {
		t.Errorf("response %+v, want a selectivity hit with costUnavailable and estimatedCost 0", resp)
	}
}

// TestBodyLimits sends each body-reading route a body past its limit
// and expects 413 ErrBodyTooLarge; a body at the plan limit still parses.
func TestBodyLimits(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		path  string
		limit int
	}{
		{"/v1/plan", maxPlanBody},
		{"/v1/admin/stats", maxAdminBody},
		{"/v1/cluster/epoch", maxAdminBody},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			// A JSON string that stays open until past the limit, so no
			// decoder can finish before the limit is hit.
			body := append([]byte(`{"template":"`), bytes.Repeat([]byte("a"), tc.limit)...)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413 (body %.200s)", w.Code, w.Body)
			}
			if eb := decodeError(t, w); eb.Sentinel != "ErrBodyTooLarge" {
				t.Errorf("sentinel %q, want ErrBodyTooLarge", eb.Sentinel)
			}
		})
	}
	t.Run("plan at the limit", func(t *testing.T) {
		body := []byte(`{"template":"t1","sVector":[0.1,0.2]}`)
		body = append(body, bytes.Repeat([]byte(" "), maxPlanBody-len(body))...)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d for a body of exactly %d bytes: %s", w.Code, len(body), w.Body)
		}
	})
}

// BenchmarkPlanHandler serves /v1/plan in process, with no network, on a
// TPC-H suite template: a warm selectivity-check hit and a cost-check
// hit. It times request decode, the checks and response encode.
func BenchmarkPlanHandler(b *testing.B) {
	eng := tpchEngines(b, 7, "tpch_3way_00")[0]
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("tpch_3way_00", "", eng, scr); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	anchor := []float64{0.05, 0.2, 0.1}
	sel := newPlanCaller(h, PlanRequest{Template: "tpch_3way_00", SVector: anchor})
	if resp := sel.response(b); resp.Via != "optimizer" {
		b.Fatalf("cold request via %s", resp.Via)
	}
	// A cost-check hit: the first perturbation of the anchor that the
	// selectivity check rejects but the cost check accepts. Cost-check
	// hits add no instance, so it stays a cost-check hit on every replay.
	var cost *planCaller
	for f := 1.5; f < 40 && cost == nil; f *= 1.1 {
		sv := []float64{anchor[0] * f, anchor[1], anchor[2] / f}
		if scr.ProbeCheck(sv) == pqo.ViaCost {
			cost = newPlanCaller(h, PlanRequest{Template: "tpch_3way_00", SVector: sv})
		}
	}
	if cost == nil {
		b.Fatal("no cost-check instance near the anchor")
	}
	for _, bc := range []struct {
		name string
		c    *planCaller
		via  string
	}{{"selectivity", sel, "selectivity-check"}, {"cost", cost, "cost-check"}} {
		b.Run(bc.name, func(b *testing.B) {
			if resp := bc.c.response(b); resp.Via != bc.via {
				b.Fatalf("via %s, want %s", resp.Via, bc.via)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code := bc.c.call(); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}
