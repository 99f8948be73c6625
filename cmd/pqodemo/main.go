// Command pqodemo processes a live workload sequence through SCR and a
// chosen baseline side by side, narrating each decision — a quick way to
// see the selectivity/cost/redundancy checks at work.
//
// Usage:
//
//	pqodemo [-template tpch_li_ord_00] [-m 40] [-lambda 2] [-baseline PCM]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/suite"
	"repro/internal/workload"
)

func main() {
	var (
		name     = flag.String("template", "tpch_li_ord_00", "suite template to run")
		m        = flag.Int("m", 40, "workload length")
		lambda   = flag.Float64("lambda", 2, "SCR sub-optimality bound λ")
		baseline = flag.String("baseline", "PCM", "comparison technique: PCM, Ellipse, Density, Ranges, OptOnce")
		seed     = flag.Int64("seed", 20170514, "workload seed")
	)
	flag.Parse()

	systems, err := suite.NewSystems(*seed)
	if err != nil {
		fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		fatal(err)
	}
	var entry *suite.Entry
	for i := range entries {
		if entries[i].Tpl.Name == *name {
			entry = &entries[i]
			break
		}
	}
	if entry == nil {
		fatal(fmt.Errorf("unknown template %q", *name))
	}
	eng, err := entry.Sys.EngineFor(entry.Tpl)
	if err != nil {
		fatal(err)
	}

	insts, err := workload.GenerateSet(entry.Tpl.Dimensions(), *m, *seed)
	if err != nil {
		fatal(err)
	}
	insts, err = workload.Prepare(eng, insts)
	if err != nil {
		fatal(err)
	}

	scr, err := core.New(eng, core.WithLambda(*lambda), core.WithViolationDetection(0.01))
	if err != nil {
		fatal(err)
	}
	other, err := makeBaseline(*baseline, eng, *lambda)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("template %s (d=%d): %s\n\n", entry.Tpl.Name, entry.Tpl.Dimensions(), entry.Tpl.SQL())
	fmt.Printf("%-5s %-28s | %-18s | %-18s\n", "#", "sVector", scr.Name(), other.Name())
	for i, q := range insts {
		d1, err := scr.Process(context.Background(), q.SV)
		if err != nil {
			fatal(err)
		}
		d2, err := other.Process(context.Background(), q.SV)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("q%-4d %-28s | %-18s | %-18s\n", i+1, fmtSV(q.SV), d1.Via, d2.Via)
	}
	fmt.Println()
	for _, tech := range []core.Technique{scr, other} {
		st := tech.Stats()
		fmt.Printf("%-12s numOpt=%d/%d  plans=%d  getPlanRecosts=%d  cacheMem=%dB\n",
			tech.Name(), st.OptCalls, st.Instances, st.MaxPlans, st.GetPlanRecosts, st.MemoryBytes)
	}

	// Sub-optimality audit against ground truth.
	seq := &workload.Sequence{Name: "demo", Tpl: entry.Tpl, Instances: insts}
	scr2, _ := core.New(eng, core.WithLambda(*lambda), core.WithViolationDetection(0.01))
	res, err := harness.Run(context.Background(), eng, scr2, seq, harness.Options{Lambda: *lambda})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nSCR replay audit: MSO=%.3f TotalCostRatio=%.3f boundViolations=%d\n",
		res.MSO, res.TotalCostRatio, res.BoundViolations)
}

func makeBaseline(name string, eng core.Engine, lambda float64) (core.Technique, error) {
	switch name {
	case "PCM":
		return baselines.NewPCM(eng, lambda)
	case "Ellipse":
		return baselines.NewEllipse(eng, 0.9)
	case "Density":
		return baselines.NewDensity(eng, 0.1, 0.5, 3)
	case "Ranges":
		return baselines.NewRanges(eng, 0.01)
	case "OptOnce":
		return baselines.NewOptOnce(eng), nil
	default:
		return nil, fmt.Errorf("unknown baseline %q", name)
	}
}

func fmtSV(sv []float64) string {
	s := "("
	for i, v := range sv {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.3g", v)
	}
	return s + ")"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pqodemo:", err)
	os.Exit(1)
}
