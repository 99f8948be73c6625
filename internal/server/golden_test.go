package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"testing"

	"repro/internal/engine"
	"repro/internal/pqotest"
	"repro/internal/suite"
	"repro/pqo"
)

// goldenPath holds the /v1/plan responses to goldenRequests, one per
// line, with latencyMicros zeroed. They were recorded from the
// encoding/json handler that priced every response with its own Recost;
// the hand-written codec and the check-carried cost must reproduce them
// byte for byte.
const goldenPath = "testdata/plan_golden.jsonl"

// tpchEngines returns the engines of TPC-H suite templates by name, over
// one fresh set of systems built with the given seed.
func tpchEngines(t testing.TB, seed int64, names ...string) []*engine.TemplateEngine {
	t.Helper()
	systems, err := suite.NewSystems(seed)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*engine.TemplateEngine, len(names))
	for i, name := range names {
		for _, e := range entries {
			if e.Tpl.Name == name {
				if out[i], err = e.Sys.EngineFor(e.Tpl); err != nil {
					t.Fatal(err)
				}
			}
		}
		if out[i] == nil {
			t.Fatalf("no suite template %q", name)
		}
	}
	return out
}

// goldenServer registers the golden templates: two TPC-H suite templates
// and a synthetic engine whose plan names need JSON escaping (HTML
// characters, U+2028/U+2029, a quote, a control character and non-ASCII text).
func goldenServer(t testing.TB) *Server {
	t.Helper()
	s := New(Config{})
	register := func(name string, eng pqo.Engine) {
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(name, "", eng, scr); err != nil {
			t.Fatal(err)
		}
	}
	tpch := tpchEngines(t, 7, "tpch_li_ord_00", "tpch_3way_00")
	register("tpch_li_ord_00", tpch[0])
	register("tpch_3way_00", tpch[1])
	rng := rand.New(rand.NewSource(11))
	random, err := pqotest.RandomEngine(rng, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a<b>&c", "line\u2028sep\u2029", `q"uote\`, "tab\there", "k\u00e4se\u2192\u2211", "plain"}
	specs := make([]pqotest.PlanSpec, 6)
	for i := range specs {
		specs[i] = pqotest.PlanSpec{
			Name:   names[i],
			Const:  1 + rng.Float64()*5,
			Linear: []float64{rng.Float64() * 200, rng.Float64() * 200, rng.Float64() * 200},
		}
	}
	escaped, err := pqotest.NewEngine(3, specs)
	if err != nil {
		t.Fatal(err)
	}
	register("synthetic", random)
	register("escaped", escaped)
	return s
}

// goldenRequests is the fixed replay: per template, fresh instances,
// exact repeats (selectivity hits) and small perturbations of earlier
// instances (cost-check hits or new optimizer calls).
func goldenRequests() []PlanRequest {
	rng := rand.New(rand.NewSource(2017))
	dims := []struct {
		name string
		d    int
	}{{"tpch_li_ord_00", 2}, {"tpch_3way_00", 3}, {"synthetic", 3}, {"escaped", 3}}
	var out []PlanRequest
	for _, t := range dims {
		var seen [][]float64
		for i := 0; i < 60; i++ {
			var sv []float64
			switch {
			case len(seen) == 0 || i%3 == 0:
				sv = pqotest.RandomSVector(rng, t.d)
				seen = append(seen, sv)
			case i%3 == 1:
				sv = seen[rng.Intn(len(seen))]
			default:
				base := seen[rng.Intn(len(seen))]
				sv = make([]float64, t.d)
				for j := range sv {
					sv[j] = base[j] * (0.5 + rng.Float64())
					if sv[j] > 1 {
						sv[j] = 1
					}
				}
			}
			out = append(out, PlanRequest{Template: t.name, SVector: sv})
		}
	}
	return out
}

var (
	latencyField = regexp.MustCompile(`"latencyMicros":[0-9]+`)
	viaField     = regexp.MustCompile(`"via":"([a-z-]+)"`)
)

// replayGolden posts every golden request in order and returns the
// response bodies, latencyMicros zeroed, one per line.
func replayGolden(t testing.TB) []byte {
	t.Helper()
	h := goldenServer(t).Handler()
	var out bytes.Buffer
	for i, req := range goldenRequests() {
		w, _ := postPlan(t, h, req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d (%s %v): status %d: %s", i, req.Template, req.SVector, w.Code, w.Body)
		}
		out.Write(latencyField.ReplaceAll(w.Body.Bytes(), []byte(`"latencyMicros":0`)))
	}
	return out.Bytes()
}

// TestPlanResponseGolden replays a fixed request sequence, with no
// statistics advance, and requires every /v1/plan response to match the
// recorded one in every byte except latencyMicros: provenance, epochs,
// plan text, fingerprint, and an estimatedCost bit-identical to a Recost
// of the chosen plan.
func TestPlanResponseGolden(t *testing.T) {
	got := replayGolden(t)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d responses, golden has %d", len(gotLines), len(wantLines))
	}
	vias := map[string]int{}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("response %d differs:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
		if m := viaField.FindSubmatch(gotLines[i]); m != nil {
			vias[string(m[1])]++
		}
	}
	for _, via := range []string{"optimizer", "selectivity-check", "cost-check"} {
		if vias[via] == 0 {
			t.Errorf("the golden replay never answers via %s (%v)", via, vias)
		}
	}
}
