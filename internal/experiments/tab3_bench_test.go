package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
)

// BenchmarkTab3Decisions replays Table 3's instance stream (the runner's
// TPC-DS three-way join, m=200, λ=1.1) through a fresh OptAlways and a
// fresh SCR per iteration, without executing any plan, and reports what
// each decision costs: ns per SCR miss (a decision that reached the
// optimizer), ns per SCR hit, ns per OptAlways Optimize, and
// scr_over_optalways, the ratio of the two techniques' total decision
// time that TestTab3Execution bounds by 2. Both techniques share one
// engine and time each decision, as in Table 3. ns/op is one replay of
// both.
func BenchmarkTab3Decisions(b *testing.B) {
	r := tinyRunner(b, nil)
	_, eng, stream, err := r.tab3Stream(200)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var (
		oaTotal, scrTotal, missTotal, hitTotal time.Duration
		misses, hits                           int
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oa := baselines.NewOptAlways(eng)
		for _, q := range stream {
			t0 := time.Now()
			_, err := oa.Process(ctx, q.SV)
			oaTotal += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
		}

		scr, err := core.New(eng, core.WithLambda(1.1), core.WithViolationDetection(0.01))
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range stream {
			t0 := time.Now()
			dec, err := scr.Process(ctx, q.SV)
			d := time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
			scrTotal += d
			if dec.Optimized {
				missTotal += d
				misses++
			} else {
				hitTotal += d
				hits++
			}
		}
	}
	b.StopTimer()
	if misses == 0 || hits == 0 {
		b.Fatalf("stream gave %d misses and %d hits; want both", misses, hits)
	}
	b.ReportMetric(float64(missTotal.Nanoseconds())/float64(misses), "ns/scr-miss")
	b.ReportMetric(float64(hitTotal.Nanoseconds())/float64(hits), "ns/scr-hit")
	b.ReportMetric(float64(oaTotal.Nanoseconds())/float64(b.N*len(stream)), "ns/optalways-optimize")
	b.ReportMetric(float64(scrTotal)/float64(oaTotal), "scr_over_optalways")
}
