package experiments

import (
	"context"
	"runtime"
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
// chosen plans, total, and plans stored. OptCPU is the optimization's CPU
// time on the deciding thread (see decisionClock), which leaves out the
// time other processes hold the CPU; the printed table reports wall
// clock, as the paper does.
type Tab3Row struct {
	Technique string
	OptTime   time.Duration
	OptCPU    time.Duration
	ExecTime  time.Duration
	Total     time.Duration
	Plans     int
}

// decisionClock returns the clock Table 3 charges each decision's CPU
// to: on Linux the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID),
// read while the caller holds its OS thread (runtime.LockOSThread); where
// that clock is missing, the monotonic wall clock. Thread CPU time counts
// the decision's own work, collector assists included, and leaves out
// preemption by other processes and the collector's background workers.
func decisionClock() func() time.Duration {
	if _, ok := threadCPUClock(); ok {
		return func() time.Duration {
			d, _ := threadCPUClock()
			return d
		}
	}
	base := time.Now()
	return func() time.Duration { return time.Since(base) }
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
				v, err = entry.Sys.Opt.StatsStore().ValueForSelectivityLE(p.Table, p.Column, sv[i])
			} else {
				v, err = entry.Sys.Opt.StatsStore().ValueForSelectivityGE(p.Table, p.Column, sv[i])
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
	techs := make([]core.Technique, len(factories))
	rows := make([]Tab3Row, len(factories))
	for i, f := range factories {
		if techs[i], err = f.New(eng); err != nil {
			return nil, err
		}
		rows[i].Technique = f.Label
	}
	// Every technique decides and executes instance i before any moves to
	// i+1, in an order that rotates with i, so that a neighbour's load and
	// the cache state plan executions leave fall on every technique alike.
	// Every decision runs on this goroutine's thread, so that the thread's
	// CPU clock measures exactly the decisions.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpuNow := decisionClock()
	for i, q := range ordered {
		params, err := toParams(q.SV)
		if err != nil {
			return nil, err
		}
		for k := range techs {
			j := (i + k) % len(techs)
			c0 := cpuNow()
			t0 := time.Now()
			dec, err := techs[j].Process(context.Background(), q.SV)
			if err != nil {
				return nil, err
			}
			rows[j].OptTime += time.Since(t0) // optimizer + getPlan overheads
			rows[j].OptCPU += cpuNow() - c0
			t1 := time.Now()
			if _, err := db.Execute(dec.Plan.Plan, entry.Tpl, params); err != nil {
				return nil, err
			}
			rows[j].ExecTime += time.Since(t1)
		}
	}
	for j, tech := range techs {
		rows[j].Total = rows[j].OptTime + rows[j].ExecTime
		rows[j].Plans = maxPlans(tech.Stats().MaxPlans, tech.Stats().CurPlans)
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
