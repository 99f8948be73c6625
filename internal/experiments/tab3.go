package experiments

import (
	"context"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/suite"
	"repro/internal/workload"
)

// Tab3Row is one technique's row of Table 3: wall-clock optimization time
// (optimizer calls + getPlan overheads), wall-clock execution time of the
// chosen plans, total, and plans stored.
type Tab3Row struct {
	Technique string
	OptTime   time.Duration
	ExecTime  time.Duration
	Total     time.Duration
	Plans     int
}

// Tab3 reproduces Table 3: a sample execution experiment over a TPC-DS-like
// template for which optimization time is comparable to execution time.
// Every chosen plan is actually executed by the in-memory engine against
// materialized data, so execution-time sub-optimality is real, not modeled.
func (r *Runner) Tab3(m, maxRows int) ([]Tab3Row, error) {
	if m <= 0 {
		m = 200
	}
	if maxRows <= 0 {
		maxRows = 50000
	}
	entry, eng, ordered, err := r.tab3Stream(m)
	if err != nil {
		return nil, err
	}
	db, err := exec.Materialize(entry.Sys.Cat, entry.Sys.Gen, maxRows)
	if err != nil {
		return nil, err
	}

	// Parameter binding: convert each instance's selectivity vector back
	// into concrete parameter values via histogram inversion, so execution
	// touches the number of rows the optimizer assumed.
	toParams := func(sv []float64) ([]float64, error) {
		preds := entry.Tpl.ParamPredicates()
		params := make([]float64, len(preds))
		for i, p := range preds {
			var (
				v   float64
				err error
			)
			if p.Op == query.LE {
				v, err = entry.Sys.Stats.ValueForSelectivityLE(p.Table, p.Column, sv[i])
			} else {
				v, err = entry.Sys.Stats.ValueForSelectivityGE(p.Table, p.Column, sv[i])
			}
			if err != nil {
				return nil, err
			}
			params[i] = v
		}
		return params, nil
	}

	factories := []Factory{
		{Label: "OptAlways", New: func(e core.Engine) (core.Technique, error) {
			return baselines.NewOptAlways(e), nil
		}},
		{Label: "OptOnce", New: func(e core.Engine) (core.Technique, error) {
			return baselines.NewOptOnce(e), nil
		}},
		{Label: "Ellipse0.9", New: func(e core.Engine) (core.Technique, error) {
			return baselines.NewEllipse(e, 0.9)
		}},
		{Label: "Ellipse0.7", New: func(e core.Engine) (core.Technique, error) {
			return baselines.NewEllipse(e, 0.7)
		}},
		SCRFactory(1.1),
		PCMFactory(1.1),
		{Label: "Ranges1%", New: func(e core.Engine) (core.Technique, error) {
			return baselines.NewRanges(e, 0.01)
		}},
	}
	var rows []Tab3Row
	for _, f := range factories {
		tech, err := f.New(eng)
		if err != nil {
			return nil, err
		}
		eng.ResetTiming()
		var execTime time.Duration
		optWall := time.Duration(0)
		for _, q := range ordered {
			t0 := time.Now()
			dec, err := tech.Process(context.Background(), q.SV)
			if err != nil {
				return nil, err
			}
			optWall += time.Since(t0) // optimizer + getPlan overheads
			params, err := toParams(q.SV)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := db.Execute(dec.Plan.Plan, entry.Tpl, params); err != nil {
				return nil, err
			}
			execTime += time.Since(t1)
		}
		rows = append(rows, Tab3Row{
			Technique: f.Label,
			OptTime:   optWall,
			ExecTime:  execTime,
			Total:     optWall + execTime,
			Plans:     maxPlans(tech.Stats().MaxPlans, tech.Stats().CurPlans),
		})
	}
	r.printf("== Table 3: sample execution experiment (%s, m=%d, maxRows=%d) ==\n",
		entry.Tpl.Name, m, maxRows)
	r.printf("%-12s %12s %12s %12s %8s\n", "technique", "opt time", "exec time", "total", "plans")
	for _, row := range rows {
		r.printf("%-12s %12s %12s %12s %8d\n", row.Technique,
			row.OptTime.Round(time.Millisecond), row.ExecTime.Round(time.Millisecond),
			row.Total.Round(time.Millisecond), row.Plans)
	}
	return rows, nil
}

// tab3Stream returns Table 3's template, its engine and its m instances in
// the order Table 3 replays them. The paper uses a TPC-DS-based query, so
// the template is the first TPC-DS one joining three or more tables, else
// the first join.
func (r *Runner) tab3Stream(m int) (suite.Entry, *engine.TemplateEngine, []workload.Instance, error) {
	entry := r.entries[0]
	found := false
	for _, e := range r.entries {
		if e.Sys == r.systems.TPCDS && len(e.Tpl.Tables) >= 3 {
			entry = e
			found = true
			break
		}
	}
	if !found {
		for _, e := range r.entries {
			if len(e.Tpl.Tables) >= 2 {
				entry = e
				break
			}
		}
	}
	base, eng, err := r.preparedSet(entry, m)
	if err != nil {
		return suite.Entry{}, nil, nil, err
	}
	ordered, err := workload.Order(base, workload.Random, r.cfg.Seed+3)
	if err != nil {
		return suite.Entry{}, nil, nil, err
	}
	return entry, eng, ordered, nil
}

func maxPlans(a, b int) int {
	if a > b {
		return a
	}
	return b
}
