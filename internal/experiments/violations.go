package experiments

import (
	"context"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/workload"
)

// ViolationRow is one configuration of the BCG-violation study.
type ViolationRow struct {
	Config             string
	MSO                float64
	TC                 float64
	BoundViolations    int64
	DetectedViolations int64
	NumOpt             int64
}

// ViolationStudy probes §7.2's cost-model assumption violations on the
// real engine. The hash-join spill cliff is this cost model's only BCG
// discontinuity: a plan whose build side crosses the memory grant jumps in
// cost by the spill factor, potentially exceeding the selectivity-ratio
// bound. The study runs SCR with a tight λ over a workload straddling the
// cliff, with and without Appendix G detection. The expected outcome is a
// *negative* result that mirrors our suite-wide audit: the optimizer's
// winners switch join algorithms before the cliff, so cached plans are
// rarely recosted across it and violations are rarer than in the paper's
// much lumpier commercial cost model (see EXPERIMENTS.md "known
// deviations"). The detection machinery itself is exercised by the
// injected-discontinuity unit test in internal/core.
func (r *Runner) ViolationStudy(m int) ([]ViolationRow, error) {
	if m <= 0 {
		m = 300
	}
	// A dedicated full-scale TPC-H system: at sf=1 the filtered lineitem
	// build side crosses the ~80 MB memory grant within the selectivity
	// range of interest.
	sys := engine.NewSystem(catalog.NewTPCH(1), r.cfg.Seed+101)
	tpl := &query.Template{
		Name:    "spill_study",
		Catalog: sys.Cat,
		Tables:  []string{"orders", "lineitem"},
		Joins: []query.Join{{
			Left: "orders", Right: "lineitem",
			LeftCol: "o_orderkey", RightCol: "l_orderkey",
			Selectivity: 1.0 / 1_500_000,
		}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		return nil, err
	}
	// The spill boundary: MemPages·PageBytes / rowBytes(lineitem) rows of
	// the 6M-row table → selectivity ≈ 0.11. Concentrate the workload
	// around it.
	base, err := workload.GenerateSet(2, m, r.cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	for i := range base {
		// Remap dimension 0 into [0.02, 0.5] (straddling the cliff) while
		// keeping dimension 1 as generated.
		base[i].SV[0] = 0.02 + base[i].SV[0]*0.5
		if base[i].SV[0] > 0.5 {
			base[i].SV[0] = 0.5
		}
	}
	base, err = workload.Prepare(eng, base)
	if err != nil {
		return nil, err
	}
	seq := &workload.Sequence{Name: tpl.Name, Tpl: tpl, Instances: base}

	lambda := 1.1
	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"SCR1.1, no detection", []core.Option{core.WithLambda(lambda)}},
		{"SCR1.1, Appendix G", []core.Option{core.WithLambda(lambda), core.WithViolationDetection(0.01)}},
	}
	var rows []ViolationRow
	for _, c := range configs {
		tech, err := core.New(eng, c.opts...)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{Lambda: lambda})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ViolationRow{
			Config:             c.label,
			MSO:                res.MSO,
			TC:                 res.TotalCostRatio,
			BoundViolations:    res.BoundViolations,
			DetectedViolations: tech.Stats().Violations,
			NumOpt:             res.NumOpt,
		})
	}
	r.printf("== Violation study: hash-join spill cliff vs Appendix G (λ=%g, m=%d) ==\n", lambda, m)
	r.printf("%-22s %8s %8s %10s %10s %8s\n", "config", "MSO", "TC", "SO>λ", "detected", "numOpt")
	for _, row := range rows {
		r.printf("%-22s %8.3f %8.3f %10d %10d %8d\n",
			row.Config, row.MSO, row.TC, row.BoundViolations, row.DetectedViolations, row.NumOpt)
	}
	return rows, nil
}
