package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/harness"
	"repro/internal/suite"
	"repro/internal/workload"
)

// HybridRow is one configuration of the offline+online hybrid study.
type HybridRow struct {
	Config   string
	NumOpt   int64
	OptPct   float64
	NumPlans int
	TC       float64
	MSO      float64
}

// HybridStudy implements the paper's §9 future-work direction: combining
// offline exploration with the online technique. An anorexic plan-diagram
// reduction (Harish et al.) runs offline over a coarse 2-d selectivity
// grid; the surviving plans and their grid anchors are seeded into SCR's
// plan cache before the workload starts. The online checks then reuse the
// seeded plans from the first instance onward, cutting optimizer calls
// relative to a cold SCR — without weakening the λ guarantee, because each
// anchor carries its true sub-optimality.
func (r *Runner) HybridStudy(m, grid int) ([]HybridRow, error) {
	if m <= 0 {
		m = 400
	}
	if grid <= 0 {
		grid = 10
	}
	var entry suite.Entry
	found := false
	for _, e := range r.entries {
		if e.Tpl.Dimensions() == 2 {
			entry, found = e, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: hybrid study needs a 2-d template in the suite slice")
	}
	base, eng, err := r.preparedSet(entry, m)
	if err != nil {
		return nil, err
	}
	ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+53)
	if err != nil {
		return nil, err
	}
	seq := &workload.Sequence{Name: entry.Tpl.Name, Tpl: entry.Tpl, Instances: ordered}

	lambda := 2.0
	// Offline phase: plan diagram + anorexic reduction at λr = √λ (so the
	// seeded sub-optimalities leave the online checks reuse headroom).
	lambdaR := 1.4142135623730951
	d, err := diagram.Build(eng, grid, workload.SmallLo, workload.LargeHi)
	if err != nil {
		return nil, err
	}
	reduced, err := d.Reduce(lambdaR)
	if err != nil {
		return nil, err
	}

	var rows []HybridRow
	run := func(label string, seed bool) error {
		scr, err := core.New(eng, core.WithLambda(lambda), core.WithViolationDetection(0.01))
		if err != nil {
			return err
		}
		if seed {
			for y := 0; y < reduced.Grid; y++ {
				for x := 0; x < reduced.Grid; x++ {
					cp := reduced.Plans[reduced.Cell[y][x]]
					sv := []float64{reduced.Axis(x), reduced.Axis(y)}
					c, err := eng.Recost(cp, sv)
					if err != nil {
						return err
					}
					winner := reduced.WinnerCost[y][x]
					subOpt := c / winner
					if subOpt < 1 {
						subOpt = 1
					}
					if err := scr.SeedInstance(sv, cp, winner, subOpt); err != nil {
						return err
					}
				}
			}
		}
		res, err := harness.Run(context.Background(), eng, scr, seq, harness.Options{Lambda: lambda})
		if err != nil {
			return err
		}
		rows = append(rows, HybridRow{
			Config:   label,
			NumOpt:   res.NumOpt,
			OptPct:   res.OptFraction * 100,
			NumPlans: res.NumPlans,
			TC:       res.TotalCostRatio,
			MSO:      res.MSO,
		})
		return nil
	}
	if err := run("cold SCR2", false); err != nil {
		return nil, err
	}
	if err := run(fmt.Sprintf("seeded SCR2 (%d plans)", reduced.NumPlans()), true); err != nil {
		return nil, err
	}
	r.printf("== Hybrid offline+online (§9 future work): %s, m=%d, %dx%d diagram ==\n",
		entry.Tpl.Name, m, grid, grid)
	r.printf("offline: plan diagram %d plans → anorexic %d plans at λr=√2\n",
		d.NumPlans(), reduced.NumPlans())
	r.printf("%-24s %8s %9s %8s %8s %8s\n", "config", "numOpt", "numOpt%", "plans", "TC", "MSO")
	for _, row := range rows {
		r.printf("%-24s %8d %8.1f%% %8d %8.3f %8.3f\n",
			row.Config, row.NumOpt, row.OptPct, row.NumPlans, row.TC, row.MSO)
	}
	return rows, nil
}
