package experiments

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/suite"
	"repro/internal/workload"
)

// OptRow is one technique's optimizer-overhead summary (Figure 9 et al.).
type OptRow struct {
	Technique string
	// MeanPct and P95Pct are numOpt as a percentage of instances.
	MeanPct, P95Pct, MaxPct float64
}

// Fig9 reproduces Figure 9: numOpt % across the Table 2 techniques.
func (r *Runner) Fig9() ([]OptRow, error) {
	seqs, err := r.Sequences()
	if err != nil {
		return nil, err
	}
	rows, err := r.optRows(StandardFactories(2), seqs)
	if err != nil {
		return nil, err
	}
	r.printOptRows("Figure 9: numOpt %% for various techniques", rows)
	return rows, nil
}

// Fig10 reproduces Figure 10: numOpt % for SCR under varying λ.
func (r *Runner) Fig10() ([]OptRow, error) {
	seqs, err := r.Sequences()
	if err != nil {
		return nil, err
	}
	var fs []Factory
	for _, lambda := range []float64{1.1, 1.2, 1.5, 2.0} {
		fs = append(fs, SCRFactory(lambda))
	}
	rows, err := r.optRows(fs, seqs)
	if err != nil {
		return nil, err
	}
	r.printOptRows("Figure 10: numOpt %% for SCR with varying λ", rows)
	return rows, nil
}

// Fig20 reproduces Figure 20 (Appendix H.5): numOpt % restricted to random
// orderings only.
func (r *Runner) Fig20() ([]OptRow, error) {
	saved := r.cfg.Orderings
	r.cfg.Orderings = []workload.Ordering{workload.Random}
	defer func() { r.cfg.Orderings = saved }()
	seqs, err := r.Sequences()
	if err != nil {
		return nil, err
	}
	rows, err := r.optRows(StandardFactories(2), seqs)
	if err != nil {
		return nil, err
	}
	r.printOptRows("Figure 20: numOpt %% (random orderings only)", rows)
	return rows, nil
}

func (r *Runner) optRows(fs []Factory, seqs []*SeqCtx) ([]OptRow, error) {
	var rows []OptRow
	for _, f := range fs {
		results, err := r.RunTechnique(f, seqs, harness.Options{})
		if err != nil {
			return nil, err
		}
		s := harness.Summarize(results, harness.MetricOptFraction)
		rows = append(rows, OptRow{
			Technique: f.Label,
			MeanPct:   s.Mean * 100,
			P95Pct:    s.P95 * 100,
			MaxPct:    s.Max * 100,
		})
	}
	return rows, nil
}

func (r *Runner) printOptRows(title string, rows []OptRow) {
	r.printf("== %s ==\n", title)
	r.printf("%-10s %10s %10s %10s\n", "technique", "mean%", "p95%", "max%")
	for _, row := range rows {
		r.printf("%-10s %10.1f %10.1f %10.1f\n", row.Technique, row.MeanPct, row.P95Pct, row.MaxPct)
	}
}

// GrowthPoint is one (m, numOpt%) sample of Figures 11 and 18.
type GrowthPoint struct {
	M         int
	Technique string
	OptPct    float64
}

// Fig11 reproduces Figure 11: for an example 4-dimensional template, numOpt
// % as the workload length m grows. Techniques: PCM2, SCR1.1, SCR2.
func (r *Runner) Fig11(ms []int) ([]GrowthPoint, error) {
	if len(ms) == 0 {
		ms = []int{250, 500, 1000, 2500}
	}
	e, err := r.templateWithDims(4)
	if err != nil {
		return nil, err
	}
	return r.growthExperiment("Figure 11: 4-d example query — numOpt % vs m", e, ms,
		[]Factory{PCMFactory(2), SCRFactory(1.1), SCRFactory(2)})
}

// Fig18 reproduces Figure 18 (Appendix H.3): for a 10-dimensional template,
// numOpt % as m grows. Techniques: PCM2, Ellipse, SCR2.
func (r *Runner) Fig18(ms []int) ([]GrowthPoint, error) {
	if len(ms) == 0 {
		ms = []int{250, 500, 1000, 2500}
	}
	e, err := r.templateWithDims(10)
	if err != nil {
		return nil, err
	}
	ellipse := Factory{Label: "Ellipse", New: func(eng core.Engine) (core.Technique, error) {
		return baselines.NewEllipse(eng, 0.90)
	}}
	return r.growthExperiment("Figure 18: 10-d example query — numOpt % vs m", e, ms,
		[]Factory{PCMFactory(2), ellipse, SCRFactory(2)})
}

func (r *Runner) templateWithDims(d int) (suite.Entry, error) {
	// Search the complete suite, not just the sampled subset, so the
	// dimension-specific experiments always find their template.
	all, err := suite.Build(r.systems)
	if err != nil {
		return suite.Entry{}, err
	}
	for _, e := range all {
		if e.Tpl.Dimensions() == d {
			return e, nil
		}
	}
	return suite.Entry{}, fmt.Errorf("experiments: no template with d=%d in suite", d)
}

func (r *Runner) growthExperiment(title string, e suite.Entry, ms []int, fs []Factory) ([]GrowthPoint, error) {
	var points []GrowthPoint
	for _, m := range ms {
		base, eng, err := r.preparedSet(e, m)
		if err != nil {
			return nil, err
		}
		ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+99)
		if err != nil {
			return nil, err
		}
		seq := &workload.Sequence{Name: fmt.Sprintf("%s/m=%d", e.Tpl.Name, m), Tpl: e.Tpl, Instances: ordered}
		for _, f := range fs {
			tech, err := f.New(eng)
			if err != nil {
				return nil, err
			}
			res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
			if err != nil {
				return nil, err
			}
			points = append(points, GrowthPoint{M: m, Technique: f.Label, OptPct: res.OptFraction * 100})
		}
	}
	r.printf("== %s (template %s) ==\n", title, e.Tpl.Name)
	r.printf("%-8s", "m")
	for _, f := range fs {
		r.printf(" %10s", f.Label)
	}
	r.printf("\n")
	for _, m := range ms {
		r.printf("%-8d", m)
		for _, f := range fs {
			for _, p := range points {
				if p.M == m && p.Technique == f.Label {
					r.printf(" %9.1f%%", p.OptPct)
				}
			}
		}
		r.printf("\n")
	}
	return points, nil
}

// DimPoint is one (d, numOpt%) sample of Figure 12.
type DimPoint struct {
	D         int
	Technique string
	OptPct    float64
	Templates int
}

// Fig12 reproduces Figure 12: numOpt % for SCR2 and PCM2 as the number of
// parameterized predicates d grows, averaged over the suite templates with
// each dimensionality.
func (r *Runner) Fig12() ([]DimPoint, error) {
	all, err := suite.Build(r.systems)
	if err != nil {
		return nil, err
	}
	byD := map[int][]suite.Entry{}
	for _, e := range all {
		d := e.Tpl.Dimensions()
		// Cap the per-d template count to keep runtime bounded.
		if len(byD[d]) < 3 {
			byD[d] = append(byD[d], e)
		}
	}
	fs := []Factory{SCRFactory(2), PCMFactory(2)}
	var points []DimPoint
	for d := 2; d <= 10; d++ {
		entries := byD[d]
		if len(entries) == 0 {
			continue
		}
		sums := make(map[string]float64)
		count := 0
		for _, e := range entries {
			base, eng, err := r.preparedSet(e, r.cfg.M)
			if err != nil {
				return nil, err
			}
			ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+5)
			if err != nil {
				return nil, err
			}
			seq := &workload.Sequence{Name: e.Tpl.Name, Tpl: e.Tpl, Instances: ordered}
			for _, f := range fs {
				tech, err := f.New(eng)
				if err != nil {
					return nil, err
				}
				res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
				if err != nil {
					return nil, err
				}
				sums[f.Label] += res.OptFraction * 100
			}
			count++
		}
		for _, f := range fs {
			points = append(points, DimPoint{
				D: d, Technique: f.Label, OptPct: sums[f.Label] / float64(count), Templates: count,
			})
		}
	}
	r.printf("== Figure 12: numOpt %% vs dimensions d — SCR2 vs PCM2 ==\n")
	r.printf("%-4s %10s %10s %10s\n", "d", "SCR2", "PCM2", "#templates")
	for d := 2; d <= 10; d++ {
		var scr, pcm float64
		n := 0
		for _, p := range points {
			if p.D != d {
				continue
			}
			n = p.Templates
			if p.Technique == "SCR2" {
				scr = p.OptPct
			} else {
				pcm = p.OptPct
			}
		}
		if n > 0 {
			r.printf("%-4d %9.1f%% %9.1f%% %10d\n", d, scr, pcm, n)
		}
	}
	return points, nil
}

// BudgetPoint is one (k, numOpt%) sample of Figure 19.
type BudgetPoint struct {
	K      int // 0 = unlimited
	OptPct float64
}

// Fig19 reproduces Figure 19 (Appendix H.4): the impact of a plan-cache
// budget k on SCR2's optimizer calls.
func (r *Runner) Fig19() ([]BudgetPoint, error) {
	seqs, err := r.Sequences()
	if err != nil {
		return nil, err
	}
	var points []BudgetPoint
	for _, k := range []int{0, 10, 5, 2} {
		opts := []core.Option{core.WithLambda(2), core.WithViolationDetection(0.01)}
		label := "SCR2/k=inf"
		if k > 0 {
			opts = append(opts, core.WithPlanBudget(k))
			label = fmt.Sprintf("SCR2/k=%d", k)
		}
		f := SCRConfigFactory(label, opts...)
		results, err := r.RunTechnique(f, seqs, harness.Options{})
		if err != nil {
			return nil, err
		}
		s := harness.Summarize(results, harness.MetricOptFraction)
		points = append(points, BudgetPoint{K: k, OptPct: s.Mean * 100})
	}
	r.printf("== Figure 19: numOpt %% vs plan-cache budget k (SCR2) ==\n")
	r.printf("%-8s %10s\n", "k", "numOpt%")
	for _, p := range points {
		k := "inf"
		if p.K > 0 {
			k = fmt.Sprintf("%d", p.K)
		}
		r.printf("%-8s %9.1f%%\n", k, p.OptPct)
	}
	return points, nil
}
