// Command pqotrace records and replays workload traces: reproducible
// experiment inputs that can be shared, diffed, or replayed against any
// technique.
//
// Usage:
//
//	pqotrace -record -template tpch_li_ord_00 -m 200 -ordering random -o trace.json
//	pqotrace -replay trace.json -template tpch_li_ord_00 -technique SCR -lambda 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/suite"
	"repro/internal/workload"
)

func main() {
	var (
		record    = flag.Bool("record", false, "record a new trace")
		replay    = flag.String("replay", "", "replay the given trace file")
		name      = flag.String("template", "", "suite template name")
		m         = flag.Int("m", 200, "instances to record")
		orderName = flag.String("ordering", "random", "ordering: random, decreasing-cost, round-robin, inside-out, outside-in")
		out       = flag.String("o", "", "output file for -record (default stdout)")
		techName  = flag.String("technique", "SCR", "technique for -replay: SCR, PCM, Ellipse, Density, Ranges, OptOnce, OptAlways")
		lambda    = flag.Float64("lambda", 2, "λ for SCR/PCM")
		seed      = flag.Int64("seed", 20170514, "workload seed")
	)
	flag.Parse()

	if *record == (*replay != "") {
		fatal(fmt.Errorf("exactly one of -record or -replay is required"))
	}
	if *name == "" {
		fatal(fmt.Errorf("-template is required"))
	}

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
		fatal(fmt.Errorf("unknown template %q (see pqoexplain -list)", *name))
	}
	eng, err := entry.Sys.EngineFor(entry.Tpl)
	if err != nil {
		fatal(err)
	}

	if *record {
		ordering, err := parseOrdering(*orderName)
		if err != nil {
			fatal(err)
		}
		base, err := workload.GenerateSet(entry.Tpl.Dimensions(), *m, *seed)
		if err != nil {
			fatal(err)
		}
		base, err = workload.Prepare(eng, base)
		if err != nil {
			fatal(err)
		}
		ordered, err := workload.Order(base, ordering, *seed+1)
		if err != nil {
			fatal(err)
		}
		seq := &workload.Sequence{
			Name:      fmt.Sprintf("%s/%s", entry.Tpl.Name, ordering),
			Tpl:       entry.Tpl,
			Instances: ordered,
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := workload.WriteTrace(w, seq); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d instances (%d distinct optimal plans)\n",
			len(ordered), workload.DistinctOptimalPlans(ordered))
		return
	}

	f, err := os.Open(*replay)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	seq, err := workload.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	seq.Tpl = entry.Tpl
	tech, err := makeTechnique(*techName, eng, *lambda)
	if err != nil {
		fatal(err)
	}
	res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{Lambda: *lambda})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %s over %s (%d instances)\n", seq.Name, tech.Name(), res.M)
	fmt.Printf("MSO=%.3f TotalCostRatio=%.3f numOpt=%d (%.1f%%) plans=%d recosts=%d violations=%d\n",
		res.MSO, res.TotalCostRatio, res.NumOpt, res.OptFraction*100,
		res.NumPlans, res.GetPlanRecosts, res.BoundViolations)
}

func parseOrdering(name string) (workload.Ordering, error) {
	for _, o := range workload.AllOrderings {
		if strings.EqualFold(o.String(), name) {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown ordering %q", name)
}

func makeTechnique(name string, eng core.Engine, lambda float64) (core.Technique, error) {
	switch strings.ToUpper(name) {
	case "SCR":
		return core.New(eng, core.WithLambda(lambda), core.WithViolationDetection(0.01))
	case "PCM":
		return baselines.NewPCM(eng, lambda)
	case "ELLIPSE":
		return baselines.NewEllipse(eng, 0.9)
	case "DENSITY":
		return baselines.NewDensity(eng, 0.1, 0.5, 3)
	case "RANGES":
		return baselines.NewRanges(eng, 0.01)
	case "OPTONCE":
		return baselines.NewOptOnce(eng), nil
	case "OPTALWAYS":
		return baselines.NewOptAlways(eng), nil
	default:
		return nil, fmt.Errorf("unknown technique %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pqotrace:", err)
	os.Exit(1)
}
