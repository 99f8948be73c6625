package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// tinyRunner builds a Runner over a handful of templates with short
// sequences — enough to exercise every experiment end to end.
func tinyRunner(t testing.TB, out *bytes.Buffer) *Runner {
	t.Helper()
	cfg := Config{
		NumTemplates: 6,
		M:            48,
		Seed:         7,
		Orderings:    []workload.Ordering{workload.Random, workload.DecreasingCost},
	}
	if out != nil {
		cfg.Out = out
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerSelectsSpreadOfTemplates(t *testing.T) {
	r := tinyRunner(t, nil)
	if got := len(r.Entries()); got != 6 {
		t.Fatalf("selected %d templates, want 6", got)
	}
	cats := map[string]bool{}
	for _, e := range r.Entries() {
		cats[e.Sys.Cat.Name] = true
	}
	if len(cats) < 2 {
		t.Errorf("template spread covers %d catalogs, want >= 2", len(cats))
	}
}

func TestFig6And7Distributions(t *testing.T) {
	var out bytes.Buffer
	r := tinyRunner(t, &out)
	d6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(d6) != 2 {
		t.Fatalf("Fig6 returned %d techniques, want 2", len(d6))
	}
	for _, d := range d6 {
		if len(d.Points) != len(r.Entries())*2 {
			t.Errorf("%s: %d points, want %d", d.Technique, len(d.Points), len(r.Entries())*2)
		}
		// Points must be sorted by TC.
		for i := 1; i < len(d.Points); i++ {
			if d.Points[i-1].TC > d.Points[i].TC {
				t.Errorf("%s: points not sorted by TC", d.Technique)
			}
		}
	}
	d7, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// SCR2 should satisfy the bound on the vast majority of sequences.
	scr := d7[1]
	if frac := float64(scr.Violations) / float64(len(scr.Points)); frac > 0.2 {
		t.Errorf("SCR2 violated the λ=2 bound on %.0f%% of sequences", frac*100)
	}
	if !strings.Contains(out.String(), "Figure 6") || !strings.Contains(out.String(), "Figure 7") {
		t.Error("reports not printed")
	}
}

func TestFig8LambdaMonotonicity(t *testing.T) {
	r := tinyRunner(t, nil)
	dists, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 4 {
		t.Fatalf("Fig8 returned %d rows", len(dists))
	}
	// TC should stay well below the allowed λ on average (paper: mean TC
	// ~1.1 even at λ=2).
	if dists[3].TC.Mean > 2 {
		t.Errorf("SCR2 mean TC = %v, expected well under λ", dists[3].TC.Mean)
	}
}

func TestFig9And10NumOpt(t *testing.T) {
	r := tinyRunner(t, nil)
	rows, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OptRow{}
	for _, row := range rows {
		byName[row.Technique] = row
	}
	// SCR2 must beat PCM2 on optimizer overheads (the paper's headline).
	if byName["SCR2"].MeanPct >= byName["PCM2"].MeanPct {
		t.Errorf("SCR2 mean numOpt %.1f%% not below PCM2 %.1f%%",
			byName["SCR2"].MeanPct, byName["PCM2"].MeanPct)
	}
	rows10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// numOpt must decrease as λ grows.
	if rows10[0].MeanPct < rows10[len(rows10)-1].MeanPct {
		t.Errorf("numOpt did not decrease with λ: %.1f%% -> %.1f%%",
			rows10[0].MeanPct, rows10[len(rows10)-1].MeanPct)
	}
}

func TestFig13And14Plans(t *testing.T) {
	r := tinyRunner(t, nil)
	rows, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PlanRow{}
	for _, row := range rows {
		byName[row.Technique] = row
	}
	if byName["SCR2"].Mean > byName["PCM2"].Mean {
		t.Errorf("SCR2 stores more plans (%.1f) than PCM2 (%.1f)",
			byName["SCR2"].Mean, byName["PCM2"].Mean)
	}
	rows14, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if rows14[0].Mean < rows14[len(rows14)-1].Mean {
		t.Errorf("numPlans did not decrease with λ: %.1f -> %.1f",
			rows14[0].Mean, rows14[len(rows14)-1].Mean)
	}
}

func TestFig11GrowthAndFig19Budget(t *testing.T) {
	r := tinyRunner(t, nil)
	pts, err := r.Fig11([]int{60, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 { // 2 m-values × 3 techniques
		t.Fatalf("Fig11 returned %d points, want 6", len(pts))
	}
	// numOpt% for SCR2 must not increase with m.
	var small, large float64
	for _, p := range pts {
		if p.Technique == "SCR2" && p.M == 60 {
			small = p.OptPct
		}
		if p.Technique == "SCR2" && p.M == 120 {
			large = p.OptPct
		}
	}
	if large > small+5 {
		t.Errorf("SCR2 numOpt%% grew with m: %.1f -> %.1f", small, large)
	}
	bpts, err := r.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if len(bpts) != 4 {
		t.Fatalf("Fig19 returned %d points", len(bpts))
	}
	// Tighter budgets cannot reduce optimizer calls.
	if bpts[3].OptPct < bpts[0].OptPct-1e-9 {
		t.Errorf("k=2 has fewer optimizer calls (%.1f%%) than unlimited (%.1f%%)",
			bpts[3].OptPct, bpts[0].OptPct)
	}
}

func TestFig1Example(t *testing.T) {
	var out bytes.Buffer
	r := tinyRunner(t, &out)
	res, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumOpt["SCR2"] == 0 || res.NumOpt["SCR2"] > 13 {
		t.Errorf("SCR2 numOpt = %d, want within (0, 13]", res.NumOpt["SCR2"])
	}
	// SCR should optimize no more than PCM on the clustered example.
	if res.NumOpt["SCR2"] > res.NumOpt["PCM2"] {
		t.Errorf("SCR2 optimized %d > PCM2 %d on the example workload",
			res.NumOpt["SCR2"], res.NumOpt["PCM2"])
	}
	if !strings.Contains(out.String(), "q13") {
		t.Error("Fig1 report incomplete")
	}
}

func TestAppendixExperiments(t *testing.T) {
	r := tinyRunner(t, nil)
	dRows, err := r.AppD(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(dRows) != 2 {
		t.Fatalf("AppD returned %d rows", len(dRows))
	}
	if dRows[1].NumPlans > dRows[0].NumPlans {
		t.Errorf("dynamic λ stored more plans (%d) than static (%d)",
			dRows[1].NumPlans, dRows[0].NumPlans)
	}
	eRows, err := r.AppE(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(eRows) != 4 {
		t.Fatalf("AppE returned %d rows", len(eRows))
	}
	// Store-always retains at least as many plans as λr=√λ.
	if eRows[0].Plans < eRows[2].Plans {
		t.Errorf("store-always plans %d below λr=√λ plans %d", eRows[0].Plans, eRows[2].Plans)
	}
	aRows, err := r.AblationGLOrdering(60)
	if err != nil {
		t.Fatal(err)
	}
	if aRows[0].GetPlanRecosts < aRows[1].GetPlanRecosts {
		t.Errorf("naive recosts %d below limited recosts %d",
			aRows[0].GetPlanRecosts, aRows[1].GetPlanRecosts)
	}
}

func TestTab3Execution(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes data and executes plans")
	}
	var out bytes.Buffer
	r := tinyRunner(t, &out)
	rows, err := r.Tab3(200, 20000)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Tab3Row{}
	for _, row := range rows {
		byName[row.Technique] = row
	}
	oa := byName["OptAlways"]
	scr := byName["SCR1.1"]
	pcm := byName["PCM1.1"]
	if oa.OptTime <= 0 || oa.OptCPU <= 0 || oa.ExecTime <= 0 {
		t.Fatalf("OptAlways times not measured: %+v", oa)
	}
	// The optimization times compare the decisions' thread CPU time
	// (wall time off Linux), taken with the techniques interleaved:
	// summed wall time charges SCR with every preemption a neighbouring
	// process causes inside its ~2 ms of decisions, which alone can
	// exceed the margin. The bound stays tolerant; the robust shape is the
	// plan-count ordering: SCR retains
	// far fewer plans than PCM and the heuristics, while OptOnce keeps
	// exactly one. Both ratios are logged on every run so the margin under
	// the bound shows in -v output.
	t.Logf("SCR1.1/OptAlways opt CPU: %v / %v = %.3f (bound 2); wall %v / %v = %.3f",
		scr.OptCPU, oa.OptCPU, float64(scr.OptCPU)/float64(oa.OptCPU),
		scr.OptTime, oa.OptTime, float64(scr.OptTime)/float64(oa.OptTime))
	if scr.OptCPU > 2*oa.OptCPU {
		t.Errorf("SCR1.1 opt CPU %v far above OptAlways %v", scr.OptCPU, oa.OptCPU)
	}
	if scr.Plans >= pcm.Plans {
		t.Errorf("SCR1.1 stored %d plans, PCM1.1 %d; SCR should store fewer", scr.Plans, pcm.Plans)
	}
	if byName["OptOnce"].Plans != 1 {
		t.Errorf("OptOnce plans = %d, want 1", byName["OptOnce"].Plans)
	}
}

func TestFig12Dimensions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs across dimension bands")
	}
	r := tinyRunner(t, nil)
	pts, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("Fig12 returned no points")
	}
	// There must be data across a range of dimensions including d >= 8.
	maxD := 0
	for _, p := range pts {
		if p.D > maxD {
			maxD = p.D
		}
	}
	if maxD < 8 {
		t.Errorf("Fig12 max dimension %d, want >= 8", maxD)
	}
}

func TestFig15And16And17(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all techniques over all sequences")
	}
	r := tinyRunner(t, nil)
	if _, _, err := r.Fig15(); err != nil {
		t.Fatal(err)
	}
	r16, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(r16) != 6 {
		t.Errorf("Fig16 rows = %d, want 6", len(r16))
	}
	r17, err := r.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AggRow{}
	for _, row := range r17 {
		byName[row.Technique] = row
	}
	// SCR2's aggregate TC should be close to optimal and below OptOnce's.
	if byName["SCR2"].Mean > byName["OptOnce"].Mean {
		t.Errorf("SCR2 mean TC %.2f above OptOnce %.2f", byName["SCR2"].Mean, byName["OptOnce"].Mean)
	}
}

func TestFig20RandomOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all techniques")
	}
	r := tinyRunner(t, nil)
	rows, err := r.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Errorf("Fig20 rows = %d, want 6", len(rows))
	}
	// Orderings config must be restored afterwards.
	if len(r.Config().Orderings) != 2 {
		t.Error("Fig20 did not restore the ordering config")
	}
}

func TestFig18TenD(t *testing.T) {
	if testing.Short() {
		t.Skip("10-d growth experiment")
	}
	r := tinyRunner(t, nil)
	pts, err := r.Fig18([]int{60, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("Fig18 returned %d points, want 6", len(pts))
	}
}

func TestFig21RecostAugmented(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six technique variants")
	}
	r := tinyRunner(t, nil)
	rows, err := r.Fig21()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Fig21 rows = %d, want 3", len(rows))
	}
	for _, row := range rows {
		if row.AugPlans > row.PlainPlans+1e-9 {
			t.Errorf("%s: redundancy check increased plans (%.0f -> %.0f)",
				row.Technique, row.PlainPlans, row.AugPlans)
		}
	}
}

func TestParallelRunMatchesSequential(t *testing.T) {
	// Parallel execution must produce identical per-sequence results.
	mk := func(par int) []*harness.Result {
		cfg := Config{NumTemplates: 4, M: 40, Seed: 7, Parallel: par,
			Orderings: []workload.Ordering{workload.Random}}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := r.Sequences()
		if err != nil {
			t.Fatal(err)
		}
		results, err := r.RunTechnique(SCRFactory(2), seqs, harness.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	seq := mk(1)
	par := mk(4)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Sequence != par[i].Sequence ||
			seq[i].MSO != par[i].MSO ||
			seq[i].TotalCostRatio != par[i].TotalCostRatio ||
			seq[i].NumOpt != par[i].NumOpt ||
			seq[i].NumPlans != par[i].NumPlans {
			t.Errorf("sequence %d differs between parallel and sequential:\n  %+v\n  %+v",
				i, seq[i], par[i])
		}
	}
}

func TestViolationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dedicated sf=1 system")
	}
	r := tinyRunner(t, nil)
	rows, err := r.ViolationStudy(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		// The negative result the suite audit also shows: violations are
		// rare on this cost model, and sub-optimality stays bounded by the
		// worst spill-explainable overshoot.
		if float64(row.BoundViolations) > 0.02*200 {
			t.Errorf("%s: %d bound violations, want rare", row.Config, row.BoundViolations)
		}
		if row.MSO > 1.1*2.5 {
			t.Errorf("%s: MSO %v beyond spill-explainable bound", row.Config, row.MSO)
		}
	}
}

func TestHybridStudy(t *testing.T) {
	r := tinyRunner(t, nil)
	rows, err := r.HybridStudy(300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	cold, seeded := rows[0], rows[1]
	// The §9 future-work claim: offline seeding reduces optimizer calls
	// without violating the bound.
	if seeded.NumOpt > cold.NumOpt {
		t.Errorf("seeded SCR made more optimizer calls (%d) than cold (%d)",
			seeded.NumOpt, cold.NumOpt)
	}
	if seeded.MSO > 2*(1+0.05) {
		t.Errorf("seeded MSO %v exceeds λ=2", seeded.MSO)
	}
}
