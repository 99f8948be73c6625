package workload

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/query"
)

func TestGenerateSetErrors(t *testing.T) {
	if _, err := GenerateSet(0, 10, 1); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := GenerateSet(2, 0, 1); err == nil {
		t.Error("m=0 should fail")
	}
}

func TestGenerateSetShapeAndRegions(t *testing.T) {
	d, m := 3, 500
	insts, err := GenerateSet(d, m, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != m {
		t.Fatalf("got %d instances, want %d", len(insts), m)
	}
	// Classify by region and count: each of d+2 regions should hold
	// roughly m/(d+2) instances.
	counts := make(map[string]int)
	for _, q := range insts {
		if len(q.SV) != d {
			t.Fatalf("sVector width %d, want %d", len(q.SV), d)
		}
		key := ""
		for _, s := range q.SV {
			if s < SmallLo || s > LargeHi {
				t.Fatalf("selectivity %v outside [%v, %v]", s, SmallLo, LargeHi)
			}
			if s >= LargeLo {
				key += "L"
			} else if s <= SmallHi {
				key += "s"
			} else {
				t.Fatalf("selectivity %v falls between the small and large bands", s)
			}
		}
		counts[key]++
	}
	expectKeys := []string{"sss", "LLL", "Lss", "sLs", "ssL"}
	for _, k := range expectKeys {
		got := counts[k]
		want := m / (d + 2)
		if got < want-1 || got > want+1 {
			t.Errorf("region %q holds %d instances, want ~%d", k, got, want)
		}
	}
}

func TestGenerateSetDeterministic(t *testing.T) {
	a, _ := GenerateSet(2, 100, 7)
	b, _ := GenerateSet(2, 100, 7)
	for i := range a {
		for j := range a[i].SV {
			if a[i].SV[j] != b[i].SV[j] {
				t.Fatal("same seed produced different sets")
			}
		}
	}
	c, _ := GenerateSet(2, 100, 8)
	same := true
	for i := range a {
		if a[i].SV[0] != c[i].SV[0] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sets")
	}
}

func testEngine(t testing.TB) (*engine.TemplateEngine, *query.Template) {
	t.Helper()
	sys := engine.NewSystem(catalog.NewTPCH(0.05), 42)
	tpl := &query.Template{
		Name:    "q2d",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 75_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tpl
}

func TestPrepareFillsGroundTruth(t *testing.T) {
	eng, _ := testEngine(t)
	insts, err := GenerateSet(2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Prepare(eng, insts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range prepared {
		if q.OptCost <= 0 || q.OptFP == "" {
			t.Fatalf("instance %d missing ground truth: %+v", i, q)
		}
	}
	if n := DistinctOptimalPlans(prepared); n < 2 {
		t.Errorf("only %d distinct optimal plans over the bucketized set; expected diversity", n)
	}
}

func TestOrderRequiresPrepare(t *testing.T) {
	insts, _ := GenerateSet(2, 10, 1)
	for _, o := range []Ordering{DecreasingCost, RoundRobinByPlan, InsideOut, OutsideIn} {
		if _, err := Order(insts, o, 1); err == nil {
			t.Errorf("%v without Prepare should fail", o)
		}
	}
	if _, err := Order(insts, Random, 1); err != nil {
		t.Errorf("Random must not require Prepare: %v", err)
	}
	if _, err := Order(insts, Ordering(99), 1); err == nil {
		t.Error("unknown ordering should fail")
	}
}

func TestOrderings(t *testing.T) {
	eng, _ := testEngine(t)
	insts, err := GenerateSet(2, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	insts, err = Prepare(eng, insts)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("preserves multiset", func(t *testing.T) {
		for _, o := range AllOrderings {
			out, err := Order(insts, o, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(insts) {
				t.Fatalf("%v: length %d, want %d", o, len(out), len(insts))
			}
			sum := func(xs []Instance) float64 {
				s := 0.0
				for _, q := range xs {
					s += q.SV[0] + 10*q.SV[1]
				}
				return s
			}
			if math.Abs(sum(out)-sum(insts)) > 1e-9 {
				t.Errorf("%v does not preserve the instance multiset", o)
			}
		}
	})

	t.Run("decreasing cost", func(t *testing.T) {
		out, err := Order(insts, DecreasingCost, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].OptCost < out[i].OptCost {
				t.Fatalf("not decreasing at %d: %v < %v", i, out[i-1].OptCost, out[i].OptCost)
			}
		}
	})

	t.Run("outside-in alternates extremes", func(t *testing.T) {
		out, err := Order(insts, OutsideIn, 5)
		if err != nil {
			t.Fatal(err)
		}
		minC, maxC := math.Inf(1), math.Inf(-1)
		for _, q := range insts {
			minC = math.Min(minC, q.OptCost)
			maxC = math.Max(maxC, q.OptCost)
		}
		if out[0].OptCost != minC || out[1].OptCost != maxC {
			t.Errorf("outside-in should start with the extremes: got %v then %v (range [%v, %v])",
				out[0].OptCost, out[1].OptCost, minC, maxC)
		}
	})

	t.Run("inside-out starts at median", func(t *testing.T) {
		out, err := Order(insts, InsideOut, 5)
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]float64, len(insts))
		for i, q := range insts {
			costs[i] = q.OptCost
		}
		minC, maxC := math.Inf(1), math.Inf(-1)
		for _, c := range costs {
			minC = math.Min(minC, c)
			maxC = math.Max(maxC, c)
		}
		// The first instance should be closer to the median than to either
		// extreme.
		if out[0].OptCost == minC || out[0].OptCost == maxC {
			t.Error("inside-out should not start at an extreme")
		}
	})

	t.Run("round robin cycles plans", func(t *testing.T) {
		out, err := Order(insts, RoundRobinByPlan, 5)
		if err != nil {
			t.Fatal(err)
		}
		nPlans := DistinctOptimalPlans(insts)
		if nPlans < 2 {
			t.Skip("need >= 2 plans for a meaningful round-robin check")
		}
		// Within the first nPlans instances, all plans must be distinct.
		seen := map[string]bool{}
		for _, q := range out[:nPlans] {
			if seen[q.OptFP] {
				t.Fatal("round-robin repeated a plan within the first cycle")
			}
			seen[q.OptFP] = true
		}
	})
}

func TestBuildSequences(t *testing.T) {
	eng, tpl := testEngine(t)
	seqs, err := BuildSequences(eng, tpl, 30, 11, AllOrderings)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(AllOrderings) {
		t.Fatalf("got %d sequences, want %d", len(seqs), len(AllOrderings))
	}
	for _, s := range seqs {
		if len(s.Instances) != 30 {
			t.Errorf("%s has %d instances", s.Name, len(s.Instances))
		}
		if s.Tpl != tpl {
			t.Errorf("%s has wrong template", s.Name)
		}
	}
}

func TestOrderingString(t *testing.T) {
	names := map[Ordering]string{
		Random: "random", DecreasingCost: "decreasing-cost",
		RoundRobinByPlan: "round-robin", InsideOut: "inside-out", OutsideIn: "outside-in",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}
