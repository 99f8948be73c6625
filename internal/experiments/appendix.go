package experiments

import (
	"context"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// AppDRow compares static λmin against the Appendix D dynamic λ on one
// template: plans stored, optimizer calls, TotalCostRatio.
type AppDRow struct {
	Config   string
	NumPlans int
	NumOpt   int64
	TC       float64
}

// AppD reproduces the Appendix D experiment: dynamic λ ∈ [1.1, 10] as an
// exponentially decaying function of optimal cost, against static λ = 1.1,
// on a multi-plan TPC-DS-like template. Dynamic λ should reduce numPlans
// and numOpt at only a small TotalCostRatio increase.
func (r *Runner) AppD(m int) ([]AppDRow, error) {
	if m <= 0 {
		m = 400
	}
	// Pick the TPC-DS template with the most distinct optimal plans at
	// this scale (the paper uses Q25, which featured 378 plans).
	var entry = r.entries[0]
	bestPlans := -1
	for _, e := range r.entries {
		if e.Sys != r.systems.TPCDS {
			continue
		}
		base, _, err := r.preparedSet(e, m)
		if err != nil {
			return nil, err
		}
		if n := workload.DistinctOptimalPlans(base); n > bestPlans {
			bestPlans, entry = n, e
		}
	}
	base, eng, err := r.preparedSet(entry, m)
	if err != nil {
		return nil, err
	}
	ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+31)
	if err != nil {
		return nil, err
	}
	seq := &workload.Sequence{Name: entry.Tpl.Name, Tpl: entry.Tpl, Instances: ordered}

	// The decay reference cost: median optimal cost of the workload.
	costs := make([]float64, len(base))
	for i, q := range base {
		costs[i] = q.OptCost
	}
	ref := harness.Percentile(costs, 0.5)

	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"static λ=1.1", []core.Option{core.WithLambda(1.1), core.WithViolationDetection(0.01)}},
		{"dynamic λ∈[1.1,10]", []core.Option{core.WithLambda(1.1), core.WithViolationDetection(0.01),
			core.WithDynamicLambda(1.1, 10, ref)}},
	}
	var rows []AppDRow
	for _, c := range configs {
		tech, err := core.New(eng, c.opts...)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AppDRow{
			Config:   c.label,
			NumPlans: res.NumPlans,
			NumOpt:   res.NumOpt,
			TC:       res.TotalCostRatio,
		})
	}
	r.printf("== Appendix D: dynamic λ on %s (m=%d, %d distinct optimal plans) ==\n",
		entry.Tpl.Name, m, bestPlans)
	r.printf("%-22s %10s %10s %10s\n", "config", "numPlans", "numOpt", "TC")
	for _, row := range rows {
		r.printf("%-22s %10d %10d %10.3f\n", row.Config, row.NumPlans, row.NumOpt, row.TC)
	}
	return rows, nil
}

// AppERow is one λr setting's outcome (Appendix E): plans retained, recost
// calls on the critical path, TotalCostRatio.
type AppERow struct {
	Label          string
	Plans          int
	GetPlanRecosts int64
	NumOpt         int64
	TC             float64
}

// AppE reproduces the Appendix E experiment: the effect of the redundancy
// threshold λr on plans retained, getPlan Recost calls and TotalCostRatio,
// for λ = 1.1. λr = √λ should retain far fewer plans than store-always at
// nearly the same TC.
func (r *Runner) AppE(m int) ([]AppERow, error) {
	if m <= 0 {
		m = 400
	}
	var entry = r.entries[0]
	for _, e := range r.entries {
		if e.Sys == r.systems.TPCDS && len(e.Tpl.Tables) >= 3 {
			entry = e
			break
		}
	}
	base, eng, err := r.preparedSet(entry, m)
	if err != nil {
		return nil, err
	}
	ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+37)
	if err != nil {
		return nil, err
	}
	seq := &workload.Sequence{Name: entry.Tpl.Name, Tpl: entry.Tpl, Instances: ordered}

	lambda := 1.1
	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"λr=1 (store always)", []core.Option{core.WithLambda(lambda), core.WithStoreAlways()}},
		{"λr=1.01", []core.Option{core.WithLambda(lambda), core.WithRedundancyThreshold(1.01)}},
		{"λr=√λ≈1.049", []core.Option{core.WithLambda(lambda)}},
		{"λr=λ=1.1", []core.Option{core.WithLambda(lambda), core.WithRedundancyThreshold(lambda)}},
	}
	var rows []AppERow
	for _, c := range configs {
		tech, err := core.New(eng, c.opts...)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AppERow{
			Label:          c.label,
			Plans:          res.NumPlans,
			GetPlanRecosts: res.GetPlanRecosts,
			NumOpt:         res.NumOpt,
			TC:             res.TotalCostRatio,
		})
	}
	r.printf("== Appendix E: choosing λr (template %s, λ=1.1, m=%d) ==\n", entry.Tpl.Name, m)
	r.printf("%-22s %8s %14s %8s %8s\n", "λr", "plans", "getPlanRecosts", "numOpt", "TC")
	for _, row := range rows {
		r.printf("%-22s %8d %14d %8d %8.3f\n", row.Label, row.Plans, row.GetPlanRecosts, row.NumOpt, row.TC)
	}
	return rows, nil
}

// AblationCandOrder compares the paper's GL-ordering of cost-check
// candidates (§6.2) with the L-ordering extension on a high-dimensional
// template, where the difference matters most: under GL order, instances
// the new one dominates (L=1, huge G) sort last and get pruned, yet they
// are exactly the candidates whose measured ratio R can pass R·L ≤ λ/S.
func (r *Runner) AblationCandOrder(m int) ([]AblationRow, error) {
	if m <= 0 {
		m = 400
	}
	entry, err := r.templateWithDims(10)
	if err != nil {
		return nil, err
	}
	base, eng, err := r.preparedSet(entry, m)
	if err != nil {
		return nil, err
	}
	ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+43)
	if err != nil {
		return nil, err
	}
	seq := &workload.Sequence{Name: entry.Tpl.Name, Tpl: entry.Tpl, Instances: ordered}
	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"GL order (paper), limit 8", []core.Option{core.WithLambda(2)}},
		{"L order, limit 8", []core.Option{core.WithLambda(2), core.WithCandidateOrderByL()}},
		{"L order, limit 32", []core.Option{core.WithLambda(2), core.WithCandidateOrderByL(), core.WithCostCheckLimit(32)}},
	}
	var rows []AblationRow
	for _, c := range configs {
		tech, err := core.New(eng, c.opts...)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{Lambda: 2})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label:          c.label,
			GetPlanRecosts: res.GetPlanRecosts,
			NumOpt:         res.NumOpt,
			TC:             res.TotalCostRatio,
		})
	}
	r.printf("== Ablation: cost-check candidate ordering on %s (d=10, m=%d) ==\n",
		entry.Tpl.Name, m)
	r.printf("%-26s %14s %8s %8s\n", "config", "getPlanRecosts", "numOpt", "TC")
	for _, row := range rows {
		r.printf("%-26s %14d %8d %8.3f\n", row.Label, row.GetPlanRecosts, row.NumOpt, row.TC)
	}
	return rows, nil
}

// AblationRow is one configuration of the GL-ordering ablation.
type AblationRow struct {
	Label          string
	GetPlanRecosts int64
	NumOpt         int64
	TC             float64
}

// AblationGLOrdering measures the §6.2 heuristic that orders cost-check
// candidates by increasing GL and prunes the rest: a naive getPlan recosts
// every instance entry, the heuristic bounds the number per call. It mirrors
// the paper's 162 → 8 Recost-call example.
func (r *Runner) AblationGLOrdering(m int) ([]AblationRow, error) {
	if m <= 0 {
		m = 400
	}
	var entry = r.entries[0]
	for _, e := range r.entries {
		if e.Sys == r.systems.TPCDS && len(e.Tpl.Tables) >= 3 {
			entry = e
			break
		}
	}
	base, eng, err := r.preparedSet(entry, m)
	if err != nil {
		return nil, err
	}
	ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	seq := &workload.Sequence{Name: entry.Tpl.Name, Tpl: entry.Tpl, Instances: ordered}
	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"naive (recost all)", []core.Option{core.WithLambda(1.1), core.WithStoreAlways(),
			core.WithCostCheckLimit(1 << 30)}},
		{"GL-order, limit 8", []core.Option{core.WithLambda(1.1), core.WithStoreAlways(), core.WithCostCheckLimit(8)}},
		{"GL-order, limit 3", []core.Option{core.WithLambda(1.1), core.WithStoreAlways(), core.WithCostCheckLimit(3)}},
		{"+redundancy λr=√λ", []core.Option{core.WithLambda(1.1), core.WithCostCheckLimit(3)}},
	}
	var rows []AblationRow
	for _, c := range configs {
		tech, err := core.New(eng, c.opts...)
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label:          c.label,
			GetPlanRecosts: res.GetPlanRecosts,
			NumOpt:         res.NumOpt,
			TC:             res.TotalCostRatio,
		})
	}
	r.printf("== Ablation: GL-ordering heuristic in getPlan (template %s, m=%d) ==\n",
		entry.Tpl.Name, m)
	r.printf("%-22s %14s %8s %8s\n", "config", "getPlanRecosts", "numOpt", "TC")
	for _, row := range rows {
		r.printf("%-22s %14d %8d %8.3f\n", row.Label, row.GetPlanRecosts, row.NumOpt, row.TC)
	}
	return rows, nil
}
