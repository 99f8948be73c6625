package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memo"
	"repro/internal/plan"
)

func testInputs(t *testing.T, name string, seed int64) (workloadDef, *stack, *inputs) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	st, err := buildStack(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(w, st, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w, st, in
}

// TestInputsDeterministic checks that one seed gives a byte-identical
// request sequence, operator deltas included, and another seed a
// different one.
func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		w, st, _ := testInputs(t, name, 1)
		sequence := func(seed int64) []byte {
			in, err := newInputs(w, st, seed)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, body := range in.bodies {
				buf.Write(body)
			}
			if w.churn {
				for k := 0; k < 4; k++ {
					body, err := in.adminBody(k)
					if err != nil {
						t.Fatal(err)
					}
					buf.Write(body)
				}
			}
			return buf.Bytes()
		}
		first, again, other := sequence(1), sequence(1), sequence(2)
		if !bytes.Equal(first, again) {
			t.Errorf("%s: seed 1 gave two different sequences", name)
		}
		if bytes.Equal(first, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
	}
}

// TestTimedEngineEquivalent checks that the traced run's engine wrapper
// changes no decision: one fixed single-client sequence yields identical
// (via, fingerprint, epoch) decisions with and without it. The wrapper
// must also have seen the batched and epoch-reporting calls, which only
// reach it because it forwards BatchEngine and EpochEngine.
func TestTimedEngineEquivalent(t *testing.T) {
	_, st, in := testInputs(t, "cold-stream", 3)
	decide := func(tr *tracer) []string {
		c, err := st.newCaches(tr)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range in.reqs[:5000] {
			dec, err := c.scrs[r.tpl].Process(context.Background(), in.svs[r.tpl][r.inst])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%v %s %d", dec.Via, dec.Plan.Fingerprint(), dec.Epoch))
		}
		return out
	}
	plain := decide(nil)
	tr := newTracer()
	timed := decide(tr)
	vias := make(map[string]bool)
	for i := range plain {
		if plain[i] != timed[i] {
			t.Fatalf("decision %d differs: %q without the wrapper, %q with it", i, plain[i], timed[i])
		}
		vias[strings.Fields(plain[i])[0]] = true
	}
	for _, via := range []string{"optimizer", "selectivity-check", "cost-check"} {
		if !vias[via] {
			t.Errorf("the sequence never decided via %s; it must cover every check", via)
		}
	}
	for _, kind := range []spanKind{spanOptimize, spanPrepare} {
		if len(tr.since(0, kind)) == 0 {
			t.Errorf("the wrapper recorded no %s span", spanNames[kind])
		}
	}
}

// TestOracleRejectsBadPlan feeds the oracle a decision that serves a
// deliberately non-optimal plan and checks that the run is marked
// incorrect, while the same decisions without it pass.
func TestOracleRejectsBadPlan(t *testing.T) {
	w, st, in := testInputs(t, "hot-read", 5)
	check := func(fp string, reqs ...request) verdict {
		o, err := newOracle(w, 5, newPlanBook(len(st.entries)))
		if err != nil {
			t.Fatal(err)
		}
		p := &phaseResult{}
		for k := range reqs {
			p.decs = append(p.decs, decision{req: int32(k), fp: p.fpID(fp), epoch: 1, via: viaCost})
		}
		v, err := o.check(&inputs{names: in.names, svs: in.svs, reqs: reqs}, p)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for tpl, pool := range in.svs {
		e := st.entries[tpl]
		plans := make([]*plan.Plan, len(pool))
		opts := make([]float64, len(pool))
		for i, sv := range pool {
			p, c, err := e.Sys.Opt.Optimize(e.Tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			plans[i], opts[i] = p, c
		}
		for j, pj := range plans {
			for i, sv := range pool {
				c, err := e.Sys.Opt.Recost(pj, e.Tpl, sv)
				if err != nil || c <= 3*lambda*opts[i] {
					continue
				}
				// Serving instance j its own optimal plan passes; serving
				// it to instance i, where it costs over 3λ, must not.
				good := request{tpl: int32(tpl), inst: int32(j)}
				if v := check(pj.Fingerprint(), good); !v.ok() {
					t.Fatalf("the optimal plan alone failed the oracle: %+v", v)
				}
				v := check(pj.Fingerprint(), good, request{tpl: int32(tpl), inst: int32(i)})
				if v.Violations != 1 || v.ok() {
					t.Fatalf("a plan %.1fx off optimal passed the oracle: %+v", c/opts[i], v)
				}
				if (&report{Oracle: v}).correct() {
					t.Fatal("a run with a λ violation reports correct")
				}
				return
			}
		}
	}
	t.Fatal("no template's pool holds a plan more than 3λ off optimal")
}

// TestFailedRequestsAreIncorrect checks that a run whose decisions all pass
// the oracle is still incorrect when a request failed or was malformed.
func TestFailedRequestsAreIncorrect(t *testing.T) {
	good := verdict{Checked: 100, Worst: 1.5}
	if !(&report{Oracle: good}).correct() {
		t.Fatal("a run with no failures and a clean oracle verdict is incorrect")
	}
	if (&report{Oracle: good, Attempted: 101, Failed: 1}).correct() {
		t.Error("a run with a failed request reports correct")
	}
	if (&report{Oracle: good, Attempted: 101, Malformed: 1}).correct() {
		t.Error("a run with a malformed response reports correct")
	}
}

// TestChurnOracleSeesStalePlans checks that epoch-churn's statistics
// advances move plan costs, so the oracle's per-epoch check can fail: a
// plan optimal at the first generation, served as a later generation's
// decision where it costs more than λ times optimal, is a violation, while
// the same plan served at its own generation is not.
func TestChurnOracleSeesStalePlans(t *testing.T) {
	const seed = 7
	w, st, in := testInputs(t, "epoch-churn", seed)
	tpl := len(st.entries) - 1
	e := st.entries[tpl]
	if e.Tpl.Name != "planbench_li_ord_const" {
		t.Fatalf("the last epoch-churn template is %s, not the constant-predicate one", e.Tpl.Name)
	}
	first := st.attached.Opt
	for k := 0; k < 64; k++ {
		next, err := first.StatsStore().Apply(in.deltas(k))
		if err != nil {
			t.Fatal(err)
		}
		later := memo.NewOptimizer(st.attached.Cat, first.Model, next)
		for i, sv := range in.svs[tpl] {
			p, _, err := first.Optimize(e.Tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			_, best, err := later.Optimize(e.Tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			stale, err := later.Recost(p, e.Tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			if stale <= lambda*best*(1+1e-6) {
				continue
			}
			o, err := newOracle(w, seed, newPlanBook(len(st.entries)))
			if err != nil {
				t.Fatal(err)
			}
			epoch := uint32(first.Epoch().ID)
			if err := o.advance(uint64(epoch)+1, in.deltas(k)); err != nil {
				t.Fatal(err)
			}
			p0 := &phaseResult{}
			fp := p0.fpID(p.Fingerprint())
			p0.decs = []decision{
				{req: 0, fp: fp, epoch: epoch, via: viaCost},
				{req: 0, fp: fp, epoch: epoch + 1, via: viaCost},
			}
			v, err := o.check(&inputs{names: in.names, svs: in.svs, reqs: []request{{tpl: int32(tpl), inst: int32(i)}}}, p0)
			if err != nil {
				t.Fatal(err)
			}
			if v.Checked != 2 || v.Violations != 1 {
				t.Fatalf("a plan %.1fx off optimal at a later generation: %+v", stale/best, v)
			}
			return
		}
	}
	t.Fatal("no statistics advance moved a plan of the constant-predicate template beyond λ")
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		listed []def
		here   []metricDef
	}{{cfg.EndToEnd, endToEnd}, {cfg.PerLayer, perLayer}} {
		if len(c.listed) != len(c.here) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.listed), len(c.here))
		}
		for i, d := range c.listed {
			if h := c.here[i]; d != (def{h.name, h.unit, h.better}) {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v here", i, d, h)
			}
		}
	}
}
