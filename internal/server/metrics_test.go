package server

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

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
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
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
