// Command planbench is the plan service's end-to-end benchmark.
//
// It builds the paper's 90-template suite (internal/suite: TPC-H, TPC-DS,
// RD1 and RD2), serves it with internal/server through Server.Serve on a
// loopback TCP listener, and drives POST /v1/plan as a closed loop from a
// request sequence generated from --seed. Every decision is checked against
// a λ oracle built on a twin of the suite. The last line of standard output
// is one JSON object: the end-to-end metrics with --trace 0, or the
// per-layer metrics of a separate traced run with --trace 1. A table of
// every metric goes to standard error, and a JSON artifact with the
// machine's metadata to --out. README.md describes workloads and metrics.
//
// From the repository root:
//
//	bash planbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// lambda is the sub-optimality bound every workload serves at.
const lambda = 2.0

func main() {
	wl := flag.String("workload", "hot-read", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run's per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "planbench"), "directory for the run artifact and span log")
	commit := flag.String("commit", "unknown", "source revision recorded in the artifact")
	flag.Parse()
	w, ok := findWorkload(*wl)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(1)
	}
}

func run(w workloadDef, seed int64, dur time.Duration, traced bool, out, commit string) error {
	b := &bench{w: w, seed: seed}
	var (
		rep *report
		err error
	)
	if traced {
		rep, err = runTraced(b, dur, out)
	} else {
		rep, err = runEndToEnd(b, dur)
	}
	if err != nil {
		return err
	}
	rep.Machine = readMachine(w.clients, commit)
	if err := rep.write(out); err != nil {
		return err
	}
	res, err := rep.result()
	if err != nil {
		return err
	}
	rep.print(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runEndToEnd sets up several times, measures the workload with its own
// client count, untraced, and checks every decision.
func runEndToEnd(b *bench, dur time.Duration) (*report, error) {
	setup, err := b.setUp(setupRepeats)
	if err != nil {
		return nil, err
	}
	p, err := b.measure(b.w.clients, dur, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport(b, false, dur)
	rep.set("setup_s", setup)
	rep.addLoad(p)
	v, err := b.check(p)
	if err != nil {
		return nil, err
	}
	rep.addOutcome(p, v)
	// heap_mb is the program's live heap: the last deployment still
	// serves, while the client's samples and the oracle's twin are gone.
	p.lat, p.decs = nil, nil
	rep.set("heap_mb", heapMB())
	return rep, b.shutdown()
}

// runTraced gives the per-layer numbers from four phases on one set-up:
//
//	A: the workload's client count, untraced: counter deltas, via mix,
//	   allocations, and the oracle check;
//	B: one client, untraced: the baseline for tracing overhead and coverage;
//	C: one client against a traced deployment: request, handler and engine
//	   spans (one client, so every child span nests in one request by time);
//	D: the sequence replayed through Directory.Lookup and SCR.Process on
//	   fresh caches: core spans labelled by Decision.Via.
func runTraced(b *bench, dur time.Duration, out string) (*report, error) {
	if _, err := b.setUp(1); err != nil {
		return nil, err
	}
	rep := newReport(b, true, dur)
	a, err := b.measure(b.w.clients, dur*4/10, nil)
	if err != nil {
		return nil, err
	}
	rep.addLoad(a)
	if err := rep.addCounters(b.d, a); err != nil {
		return nil, err
	}
	base := a
	if b.w.clients > 1 {
		if base, err = b.measure(1, dur*2/10, nil); err != nil {
			return nil, err
		}
		rep.count(base)
	}
	tr := newTracer()
	c, err := b.measure(1, dur*3/10, tr)
	if err != nil {
		return nil, err
	}
	rep.count(c)
	if err := b.shutdown(); err != nil {
		return nil, err
	}
	rp, err := replay(b.st, b.in, !b.w.cold, dur/10)
	if err != nil {
		return nil, err
	}
	v, err := b.check(a)
	if err != nil {
		return nil, err
	}
	rep.addOutcome(a, v)
	rep.addLayers(base, c, tr, rp)
	if err := tr.write(filepath.Join(out, b.w.name+"-spans.csv")); err != nil {
		return nil, err
	}
	return rep, nil
}
