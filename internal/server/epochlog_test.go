package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/suite"
	"repro/pqo"
)

// churnSQL are TPC-H templates beside the suite's 27. The last one's
// constant predicate puts orders.o_orderdate in its footprint: the only
// statistics any of the 31 templates reads.
var churnSQL = []string{
	`SELECT * FROM lineitem, orders
	 WHERE lineitem.l_orderkey = orders.o_orderkey
	   AND lineitem.l_shipdate <= ?0 AND orders.o_totalprice >= ?1`,
	`SELECT * FROM lineitem WHERE lineitem.l_shipdate <= ?0 AND lineitem.l_quantity <= ?1`,
	`SELECT * FROM lineitem, orders
	 WHERE lineitem.l_orderkey = orders.o_orderkey
	   AND lineitem.l_quantity <= ?0 AND orders.o_totalprice <= ?1 AND lineitem.l_shipdate >= ?2`,
	`SELECT * FROM lineitem, orders
	 WHERE lineitem.l_orderkey = orders.o_orderkey
	   AND lineitem.l_shipdate <= ?0
	   AND orders.o_orderdate <= 1200
	   AND orders.o_totalprice >= ?1`,
}

// churnServer registers 31 TPC-H templates — the suite's and churnSQL —
// over one attached system, and warms every cache with a few instances.
// It is the arrangement of an operator refreshing one column while many
// templates are registered and one of them reads it.
func churnServer(tb testing.TB) *Server {
	tb.Helper()
	systems, err := suite.NewSystems(5)
	if err != nil {
		tb.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		tb.Fatal(err)
	}
	sys := systems.TPCH
	tpls := []*pqo.Template{}
	for _, e := range entries {
		if e.Sys == sys {
			tpls = append(tpls, e.Tpl)
		}
	}
	for i, sql := range churnSQL {
		tpl, err := pqo.ParseTemplate(fmt.Sprintf("churn_%d", i), sql, sys.Cat)
		if err != nil {
			tb.Fatal(err)
		}
		tpls = append(tpls, tpl)
	}
	if len(tpls) != 31 {
		tb.Fatalf("%d templates, want 31", len(tpls))
	}

	s := New(Config{})
	h := s.Handler()
	rng := rand.New(rand.NewSource(17))
	for _, tpl := range tpls {
		eng, err := sys.EngineFor(tpl)
		if err != nil {
			tb.Fatal(err)
		}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Register(tpl.Name, tpl.SQL(), eng, scr); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			sv := make([]float64, tpl.Dimensions())
			for d := range sv {
				sv[d] = 0.001 + 0.999*rng.Float64()
			}
			if w, _ := postPlan(tb, h, PlanRequest{Template: tpl.Name, SVector: sv}); w.Code != http.StatusOK {
				tb.Fatalf("warming %s: status %d body %s", tpl.Name, w.Code, w.Body)
			}
		}
	}
	s.SetSystem(sys)
	return s
}

// deltaAdvance posts the k-th refresh of orders.o_orderdate to
// /v1/admin/stats and waits until every template's revalidation run has
// finished.
func deltaAdvance(tb testing.TB, s *Server, h http.Handler, k int) {
	tb.Helper()
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i)*1.5 + float64(k%7)*40
	}
	body, err := json.Marshal(AdminStatsRequest{Deltas: []pqo.HistogramDelta{{
		Table: "orders", Column: "o_orderdate", Values: vals,
	}}})
	if err != nil {
		tb.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/stats", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		tb.Fatalf("advance %d: status %d body %s", k, w.Code, w.Body)
	}
	for _, v := range s.registered() {
		if run := v.(*entry).scr.CurrentRevalidation(); run != nil {
			<-run.Done()
		}
	}
}

// liveHeap returns the heap in use after two full collections; the
// second frees what the first moved into sync.Pool victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEpochLogRetainsLittlePerAdvance pins what a drained statistics
// advance leaves behind: with 31 templates registered and one of them
// revalidating, the live heap may grow by at most 2 KB per advance. An
// epoch log that kept every template's run handle grows by ~10 KB.
func TestEpochLogRetainsLittlePerAdvance(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping changes the heap")
	}
	s := churnServer(t)
	h := s.Handler()
	// Reach the steady state first: plan caches settle and the epoch
	// log's backing array has grown past its first doublings.
	const warm, advances = 40, 200
	for k := 0; k < warm; k++ {
		deltaAdvance(t, s, h, k)
	}
	before := liveHeap()
	for k := warm; k < warm+advances; k++ {
		deltaAdvance(t, s, h, k)
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	per := float64(after-before) / advances
	t.Logf("heap %d → %d B over %d advances: %.0f B per advance", before, after, advances, per)
	if per > 2048 {
		t.Fatalf("each drained advance retains %.0f B, want ≤ 2048", per)
	}
}

// TestEpochLogKeepsWindow makes 10k advances and checks that the epoch
// log stays at its window: /v1/admin/epochs lists the newest
// epochLogWindow generations, states how many it dropped, and its newest
// record still carries every template's latest run.
func TestEpochLogKeepsWindow(t *testing.T) {
	s, _ := adminSystem(t)
	h := s.Handler()
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = float64(i)
	}
	// l_quantity is in no template's footprint, so no run has work.
	body, err := json.Marshal(AdminStatsRequest{Deltas: []pqo.HistogramDelta{{
		Table: "lineitem", Column: "l_quantity", Values: vals,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const advances = 10_000
	for k := 0; k < advances; k++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/stats", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("advance %d: status %d body %s", k, w.Code, w.Body)
		}
	}
	s.admin.mu.Lock()
	n, c := len(s.admin.log), cap(s.admin.log)
	s.admin.mu.Unlock()
	if n != epochLogWindow || c > 2*epochLogWindow {
		t.Fatalf("epoch log holds %d records in an array of %d, want %d", n, c, epochLogWindow)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/admin/epochs", nil))
	var infos []EpochInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	// The initial record plus one per advance, less the window.
	if got, want := w.Header().Get(epochsDroppedHeader), fmt.Sprint(advances+1-epochLogWindow); got != want {
		t.Errorf("%s = %q, want %q", epochsDroppedHeader, got, want)
	}
	if len(infos) != epochLogWindow {
		t.Fatalf("/v1/admin/epochs lists %d epochs, want %d", len(infos), epochLogWindow)
	}
	last := infos[len(infos)-1]
	if last.Epoch != advances+1 || !last.Current || infos[0].Epoch != last.Epoch-epochLogWindow+1 {
		t.Errorf("listed epochs %d..%d (current %v), want the newest %d ending at %d",
			infos[0].Epoch, last.Epoch, last.Current, epochLogWindow, advances+1)
	}
	for _, name := range []string{"q1", "q2", "q3"} {
		if p, ok := last.Revalidation[name]; !ok || !p.Finished {
			t.Errorf("newest record reports %s's run as %+v (present %v), want it finished", name, p, ok)
		}
	}
}

// getEpochs returns the raw /v1/admin/epochs body.
func getEpochs(t *testing.T, h http.Handler) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/admin/epochs", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/admin/epochs: status %d body %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// TestAdminEpochsSurviveCompaction pins that compacting the epoch log
// changes nothing /v1/admin/epochs reports: a record answers the same
// from its run handles and from its compact form.
func TestAdminEpochsSurviveCompaction(t *testing.T) {
	s, _ := adminSystem(t)
	h := s.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}, {0.3, 0.3}} {
		for _, tpl := range []string{"q1", "q2", "q3"} {
			if w, _ := postPlan(t, h, PlanRequest{Template: tpl, SVector: sv}); w.Code != http.StatusOK {
				t.Fatalf("seeding %s: status %d body %s", tpl, w.Code, w.Body)
			}
		}
	}
	drain := func() {
		for _, v := range s.registered() {
			if run := v.(*entry).scr.CurrentRevalidation(); run != nil {
				<-run.Done()
			}
		}
	}
	if w, resp := postAdminStats(t, h, `{"resampleSeed": 99}`); resp == nil {
		t.Fatalf("resample advance: status %d body %s", w.Code, w.Body)
	}
	drain()
	if w, resp := postAdminStats(t, h, `{"deltas":[{"table":"orders","column":"o_orderdate","values":[1,5,9,40,300,900,1500]}]}`); resp == nil {
		t.Fatalf("delta advance: status %d body %s", w.Code, w.Body)
	}
	drain()

	live := getEpochs(t, h)
	s.admin.mu.Lock()
	s.compactEpochLogLocked()
	log := append([]*epochRecord(nil), s.admin.log...)
	s.admin.mu.Unlock()
	compacted := getEpochs(t, h)
	if !bytes.Equal(live, compacted) {
		t.Fatalf("/v1/admin/epochs changed by compaction:\nbefore %s\nafter  %s", live, compacted)
	}

	// Both advance records are compact, q3's runs did work, and the
	// unchanged template set is one shared name list.
	if len(log) != 3 {
		t.Fatalf("epoch log has %d records, want 3", len(log))
	}
	for _, rec := range log[1:] {
		if rec.runs != nil {
			t.Errorf("epoch %d still holds its run handles after its runs finished", rec.id)
		}
		if len(rec.worked) != 1 || rec.names[rec.worked[0].i] != "q3" {
			t.Errorf("epoch %d keeps progress for %+v, want q3's run only", rec.id, rec.worked)
		}
	}
	if &log[1].names[0] != &log[2].names[0] {
		t.Error("consecutive records with the same templates keep separate name lists")
	}
	var infos []EpochInfo
	if err := json.Unmarshal(compacted, &infos); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(infos[2].Revalidation["q1"]); got != fmt.Sprint(pqo.RevalidationProgress{TargetEpoch: 1, Finished: true}) {
		t.Errorf("q1's idle run reads %s after compaction", got)
	}
}

// TestAdminEpochsDuringAdvances reads the epoch log while advances
// append and compact it, without draining between advances, so records
// compact while readers hold their predecessors: every read must decode
// and list the generations in order.
func TestAdminEpochsDuringAdvances(t *testing.T) {
	s, _ := adminSystem(t)
	h := s.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}, {0.3, 0.3}} {
		if w, _ := postPlan(t, h, PlanRequest{Template: "q3", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("seeding q3: status %d body %s", w.Code, w.Body)
		}
	}
	const advances = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < advances; k++ {
			body := fmt.Sprintf(`{"deltas":[{"table":"orders","column":"o_orderdate","values":[1,%d,900,1500]}]}`, 10+k)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/stats", bytes.NewReader([]byte(body))))
			if w.Code != http.StatusOK {
				t.Errorf("advance %d: status %d body %s", k, w.Code, w.Body)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		var infos []EpochInfo
		if err := json.Unmarshal(getEpochs(t, h), &infos); err != nil {
			t.Fatal(err)
		}
		for i, info := range infos {
			if info.Epoch != uint64(i+1) {
				t.Fatalf("epoch log out of order: record %d is epoch %d", i, info.Epoch)
			}
		}
	}
	if infos := getEpochs(t, h); !bytes.Contains(infos, []byte(fmt.Sprintf(`"epoch":%d`, advances+1))) {
		t.Fatalf("epoch log lacks the last advance: %s", infos)
	}
}

// BenchmarkAdminAdvance measures one drained delta advance through
// /v1/admin/stats with 31 templates registered, one of which revalidates:
// the statistics install, every template's revalidation run and the
// epoch-log bookkeeping.
func BenchmarkAdminAdvance(b *testing.B) {
	s := churnServer(b)
	h := s.Handler()
	for k := 0; k < 10; k++ {
		deltaAdvance(b, s, h, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		deltaAdvance(b, s, h, k)
	}
}
