package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pqotest"
	"repro/pqo"
)

// TestOpenAPICoversEveryRoute asserts the served OpenAPI document and the
// route registry agree exactly: every registered route appears in the spec
// under its method, and the spec names no path the mux does not serve.
func TestOpenAPICoversEveryRoute(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/openapi.json", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/openapi.json: status %d", w.Code)
	}
	var doc struct {
		OpenAPI string                            `json:"openapi"`
		Info    struct{ Version string }          `json:"info"`
		Paths   map[string]map[string]interface{} `json:"paths"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OpenAPI == "" || doc.Info.Version != "v1" {
		t.Errorf("spec header = openapi %q, version %q", doc.OpenAPI, doc.Info.Version)
	}
	registered := make(map[string]map[string]bool)
	for _, rt := range s.routes() {
		if registered[rt.path] == nil {
			registered[rt.path] = make(map[string]bool)
		}
		registered[rt.path][strings.ToLower(rt.method)] = true
	}
	for path, methods := range registered {
		for m := range methods {
			if _, ok := doc.Paths[path][m]; !ok {
				t.Errorf("spec missing %s %s", m, path)
			}
		}
	}
	for path, ops := range doc.Paths {
		for m := range ops {
			if !registered[path][m] {
				t.Errorf("spec documents unserved operation %s %s", m, path)
			}
		}
	}
}

// TestErrorEnvelopes asserts every error path answers the uniform
// {"error","sentinel"} JSON envelope.
func TestErrorEnvelopes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name     string
		req      *http.Request
		code     int
		sentinel string
	}{
		{"unknown path", httptest.NewRequest(http.MethodGet, "/nope", nil),
			http.StatusNotFound, "ErrNotFound"},
		{"unversioned path", httptest.NewRequest(http.MethodPost, "/plan",
			strings.NewReader(`{"template":"t1","sVector":[0.1,0.2]}`)),
			http.StatusNotFound, "ErrNotFound"},
		{"method not allowed", httptest.NewRequest(http.MethodDelete, "/v1/plan", nil),
			http.StatusMethodNotAllowed, "ErrMethodNotAllowed"},
		{"snapshots disabled", httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil),
			http.StatusConflict, "ErrSnapshotsDisabled"},
		{"unknown template", httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"template":"nope","sVector":[0.1,0.2]}`)),
			http.StatusNotFound, "ErrUnknownTemplate"},
		{"admin without system", httptest.NewRequest(http.MethodPost, "/v1/admin/stats",
			strings.NewReader(`{"resampleSeed":1}`)),
			http.StatusConflict, "ErrNoSystem"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, tc.req)
		if w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.code, w.Body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Errorf("%s: body is not the envelope: %q", tc.name, w.Body)
			continue
		}
		if eb.Sentinel != tc.sentinel || eb.Error == "" {
			t.Errorf("%s: envelope = %+v, want sentinel %q with a message", tc.name, eb, tc.sentinel)
		}
	}

	// A draining server's healthz uses the envelope too.
	t.Run("healthz draining", func(t *testing.T) {
		s2, _ := newTestServer(t, Config{})
		s2.draining.Store(true)
		w := httptest.NewRecorder()
		s2.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz: status %d", w.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Sentinel != "ErrUnhealthy" {
			t.Fatalf("draining healthz envelope = %s (err %v), want ErrUnhealthy", w.Body, err)
		}
	})
}

// TestTemplatesAndStatsSorted registers templates in non-alphabetical
// order and asserts /v1/templates and /v1/stats list them sorted by name,
// so output is stable across runs regardless of map iteration order.
func TestTemplatesAndStatsSorted(t *testing.T) {
	s, _ := newTestServer(t, Config{}) // registers "t1"
	for _, name := range []string{"zeta", "alpha", "mid"} {
		eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(3)), 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(name, "SELECT "+name, eng, scr); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	want := []string{"alpha", "mid", "t1", "zeta"}

	for try := 0; try < 5; try++ { // map order varies run to run; sample a few
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/templates", nil))
		var tpls []TemplateInfo
		if err := json.Unmarshal(w.Body.Bytes(), &tpls); err != nil {
			t.Fatal(err)
		}
		for i, tpl := range tpls {
			if tpl.Name != want[i] {
				t.Fatalf("templates[%d] = %q, want %q (%+v)", i, tpl.Name, want[i], tpls)
			}
		}

		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var rows []StatsRow
		if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if row.Template != want[i] {
				t.Fatalf("stats[%d] = %q, want %q", i, row.Template, want[i])
			}
		}
	}
}

// adminSystem builds a real TPC-H system with two registered templates
// sharing the system optimizer, the arrangement /v1/admin/stats manages.
func adminSystem(t *testing.T) (*Server, *pqo.System) {
	t.Helper()
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	for name, sql := range map[string]string{
		"q1": `SELECT * FROM lineitem, orders
		       WHERE lineitem.l_orderkey = orders.o_orderkey
		         AND lineitem.l_shipdate <= ?0
		         AND orders.o_totalprice >= ?1`,
		"q2": `SELECT * FROM lineitem
		       WHERE lineitem.l_shipdate <= ?0 AND lineitem.l_quantity <= ?1`,
		// q3's constant predicate reads the orders.o_orderdate histogram:
		// its footprint, the only statistics its costs depend on.
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
		eng, err := sys.EngineFor(tpl)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(name, tpl.SQL(), eng, scr); err != nil {
			t.Fatal(err)
		}
	}
	s.SetSystem(sys)
	return s, sys
}

func postAdminStats(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *AdminStatsResponse) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/stats", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp AdminStatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding admin response: %v (%s)", err, w.Body)
	}
	return w, &resp
}

// TestAdminStatsLifecycle drives the full admin surface: seed traffic,
// advance by full resample, advance by per-column delta, and read the
// epoch log back with revalidation progress.
func TestAdminStatsLifecycle(t *testing.T) {
	s, _ := adminSystem(t)
	h := s.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}, {0.3, 0.3}} {
		for _, tpl := range []string{"q1", "q2", "q3"} {
			if w, _ := postPlan(t, h, PlanRequest{Template: tpl, SVector: sv}); w.Code != http.StatusOK {
				t.Fatalf("seeding %s: status %d body %s", tpl, w.Code, w.Body)
			}
		}
	}

	// Full swap: resample with a fresh seed.
	w, resp := postAdminStats(t, h, `{"resampleSeed": 99}`)
	if resp == nil {
		t.Fatalf("resample advance: status %d body %s", w.Code, w.Body)
	}
	if resp.Epoch != 2 {
		t.Fatalf("epoch after first advance = %d, want 2", resp.Epoch)
	}
	if len(resp.Revalidation) != 3 {
		t.Fatalf("revalidation started for %d templates, want 3 (%+v)", len(resp.Revalidation), resp.Revalidation)
	}
	// A resample replaces every histogram, but only q3 reads one: q1 and
	// q2 keep cost epoch 1 and have nothing to revalidate.
	checkRevalidation(t, resp, 2)
	// Drain the background runs so the next advance starts clean.
	for _, e := range s.snapshotEntries() {
		if run := e.scr.CurrentRevalidation(); run != nil {
			<-run.Done()
		}
	}

	// Partial refresh: q3's footprint column from a fresh sample.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	delta, _ := json.Marshal(AdminStatsRequest{Deltas: []pqo.HistogramDelta{{
		Table: "orders", Column: "o_orderdate", Values: vals,
	}}})
	w, resp = postAdminStats(t, h, string(delta))
	if resp == nil {
		t.Fatalf("delta advance: status %d body %s", w.Code, w.Body)
	}
	if resp.Epoch != 3 {
		t.Fatalf("epoch after delta advance = %d, want 3", resp.Epoch)
	}
	checkRevalidation(t, resp, 3)

	// The epoch log lists every generation, ascending, current flagged.
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/v1/admin/epochs", nil))
	var log []EpochInfo
	if err := json.Unmarshal(w2.Body.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("epoch log has %d entries, want 3: %+v", len(log), log)
	}
	wantReasons := []string{"initial", "resample", "delta"}
	for i, info := range log {
		if info.Epoch != uint64(i+1) || info.Reason != wantReasons[i] {
			t.Errorf("log[%d] = epoch %d reason %q, want %d %q", i, info.Epoch, info.Reason, i+1, wantReasons[i])
		}
		if info.Current != (i == len(log)-1) {
			t.Errorf("log[%d].Current = %v", i, info.Current)
		}
	}
	if cols0 := log[2].Columns; len(cols0) != 1 || cols0[0] != "orders.o_orderdate" {
		t.Errorf("delta record columns = %v, want [orders.o_orderdate]", cols0)
	}

	// Serving still works once revalidation has caught the caches up: q3
	// states the new epoch, q1 and q2 still state epoch 1 (their costs
	// are the same under every epoch since), and every response carries
	// the node's generation.
	for _, e := range s.snapshotEntries() {
		if run := e.scr.CurrentRevalidation(); run != nil {
			<-run.Done()
		}
	}
	for tpl, want := range map[string]uint64{"q1": 1, "q2": 1, "q3": 3} {
		w, pr := postPlan(t, h, PlanRequest{Template: tpl, SVector: []float64{0.02, 0.1}})
		if w.Code != http.StatusOK {
			t.Fatalf("post-advance %s plan: status %d", tpl, w.Code)
		}
		if pr.Epoch != want || pr.NodeEpoch != 3 || pr.Degraded {
			t.Errorf("post-revalidation %s decision: epoch %d nodeEpoch %d degraded %v, want %d, 3, false",
				tpl, pr.Epoch, pr.NodeEpoch, pr.Degraded, want)
		}
	}

	// The epoch gauge is visible in /metrics.
	wm := httptest.NewRecorder()
	h.ServeHTTP(wm, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := wm.Body.String()
	if got := promValue(t, body, `pqo_stats_epoch{template="q1"}`); got != 3 {
		t.Errorf("pqo_stats_epoch = %d, want 3", got)
	}
	if !strings.Contains(body, "pqo_epoch_lag_seconds") {
		t.Error("/v1/metrics missing pqo_epoch_lag_seconds")
	}
}

// checkRevalidation asserts the revalidation an advance to epoch started:
// q3, whose footprint the advance changed, revalidates its seeded
// instances to the new epoch; q1 and q2 have no footprint, stay at cost
// epoch 1, and report nothing to do.
func checkRevalidation(t *testing.T, resp *AdminStatsResponse, epoch uint64) {
	t.Helper()
	for name, p := range resp.Revalidation {
		want, wantWork := uint64(1), false
		if name == "q3" {
			want, wantWork = epoch, true
		}
		if p.TargetEpoch != want || (p.Total > 0) != wantWork {
			t.Errorf("epoch %d: %s revalidation target %d total %d, want target %d with work %v",
				epoch, name, p.TargetEpoch, p.Total, want, wantWork)
		}
	}
}

// TestAdminStatsValidation covers the request-shape errors.
func TestAdminStatsValidation(t *testing.T) {
	s, _ := adminSystem(t)
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"empty body", `{}`},
		{"both set", `{"resampleSeed":1,"deltas":[{"table":"lineitem","column":"l_shipdate","values":[1,2,3]}]}`},
		{"bad JSON", `{`},
		{"unknown column", `{"deltas":[{"table":"nope","column":"nope","values":[1,2,3]}]}`},
	}
	for _, tc := range cases {
		w, _ := postAdminStats(t, h, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Sentinel != "ErrBadRequest" {
			t.Errorf("%s: envelope = %s, want ErrBadRequest", tc.name, w.Body)
		}
	}
}
