package main

import (
	"runtime"
	"time"

	"repro/internal/memo"
)

// setupRepeats is how many times an end-to-end run sets up; setup_s is the
// median.
const setupRepeats = 5

// bench is one run: the workload, its inputs, the live deployment, and
// what the oracle needs afterwards.
type bench struct {
	w     workloadDef
	seed  int64
	st    *stack
	in    *inputs
	d     *deployment // the live deployment, if any
	book  *planBook
	ops   int           // operator advances made so far
	steps []advanceStep // every advance, in order
}

// setUp builds the suite and a deployment `times` times, warming it unless
// the workload starts cold, and keeps the last. It returns the median
// set-up time: systems, engines, registration and warm-up.
func (b *bench) setUp(times int) (float64, error) {
	secs := make([]float64, 0, times)
	for i := 0; i < times; i++ {
		if err := b.shutdown(); err != nil {
			return 0, err
		}
		start := time.Now()
		st, err := buildStack(b.w, b.seed)
		if err != nil {
			return 0, err
		}
		built := time.Since(start)
		if b.in == nil {
			// The inputs are the benchmark's, not the program's: they are
			// generated once, outside the timed set-up.
			if b.in, err = newInputs(b.w, st, b.seed); err != nil {
				return 0, err
			}
			b.book = newPlanBook(len(st.entries))
		}
		start = time.Now()
		d, err := b.deploy(st, nil)
		if err != nil {
			return 0, err
		}
		secs = append(secs, (built + time.Since(start)).Seconds())
		b.st, b.d = st, d
	}
	return median(secs), b.book.addExports(b.d.scrs)
}

// deploy starts a deployment over st and warms it for steady workloads.
func (b *bench) deploy(st *stack, tr *tracer) (*deployment, error) {
	d, err := deploy(st, tr)
	if err != nil {
		return nil, err
	}
	if !b.w.cold {
		if err := d.warm(b.in); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// shutdown closes the live deployment, if any.
func (b *bench) shutdown() error {
	if b.d == nil {
		return nil
	}
	err := b.d.close()
	b.d = nil
	return err
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	rounds     int
	wall       time.Duration // time spent driving requests, summed over rounds
	attempted  int64
	failed     int64
	malformed  int64
	firstError string
	lat        []int64
	decs       []decision
	fps        []string
	fpIDs      map[string]int32
	delta      counters
	plans      []float64 // Σ cached plans at the end of each round
	steps      []advanceStep
	traceFrom  int64 // tracer time at the phase's start, when traced
}

func (p *phaseResult) fpID(fp string) int32 {
	if p.fpIDs == nil {
		p.fpIDs = make(map[string]int32)
	}
	id, ok := p.fpIDs[fp]
	if !ok {
		id = int32(len(p.fps))
		p.fps = append(p.fps, fp)
		p.fpIDs[fp] = id
	}
	return id
}

func (p *phaseResult) addLogs(logs []*clientLog) {
	for _, l := range logs {
		ids := make([]int32, len(l.fps))
		for i, fp := range l.fps {
			ids[i] = p.fpID(fp)
		}
		for _, d := range l.decs {
			d.fp = ids[d.fp]
			p.decs = append(p.decs, d)
		}
		p.lat = append(p.lat, l.lat...)
		p.attempted += l.attempted
		p.failed += l.failed
		p.malformed += l.malformed
		if p.firstError == "" {
			p.firstError = l.firstError
		}
	}
}

func (p *phaseResult) throughput() float64 {
	return ratio(float64(len(p.lat)), p.wall.Seconds())
}

// measure runs one measured phase with `clients` closed-loop clients. With
// a tracer it runs on a deployment built with that tracer. Steady
// workloads replay their sequence until dur is up; cold-stream runs whole
// rounds, each on a fresh deployment with empty caches, until dur is up.
func (b *bench) measure(clients int, dur time.Duration, tr *tracer) (*phaseResult, error) {
	p := &phaseResult{}
	deadline := time.Now().Add(dur)
	for {
		if b.d == nil || b.d.tr != tr || (b.w.cold && b.d.used) {
			if err := b.shutdown(); err != nil {
				return nil, err
			}
			d, err := b.deploy(b.st, tr)
			if err != nil {
				return nil, err
			}
			b.d = d
			if err := b.book.addExports(d.scrs); err != nil {
				return nil, err
			}
		}
		if tr != nil && p.rounds == 0 {
			p.traceFrom = tr.now()
		}
		if err := b.round(p, clients, deadline, tr); err != nil {
			return nil, err
		}
		if !b.w.cold || !time.Now().Before(deadline) {
			return p, nil
		}
	}
}

// round drives the sequence once (cold-stream) or cyclically until the
// deadline (steady workloads), with the operator beside it for
// epoch-churn, and folds the outcome into p.
func (b *bench) round(p *phaseResult, clients int, deadline time.Time, tr *tracer) error {
	d := b.d
	d.used = true
	cur := &cursor{n: int64(len(b.in.reqs))}
	if !b.w.cold {
		cur.deadline = deadline
	}
	before := readCounters(d.caches)
	var (
		op     *operator
		stop   = make(chan struct{})
		opDone = make(chan error, 1)
	)
	if b.w.churn {
		op = newOperator(d.url, b.in, b.ops)
		go func() { opDone <- op.run(stop) }()
	}
	start := time.Now()
	logs := drive(d.url, b.in, clients, cur, tr)
	p.wall += time.Since(start)
	var opErr error
	if op != nil {
		close(stop)
		opErr = <-opDone
		b.ops = op.next
		b.steps = append(b.steps, op.steps...)
		p.steps = append(p.steps, op.steps...)
	}
	p.delta = p.delta.plus(readCounters(d.caches).minus(before))
	p.addLogs(logs)
	p.rounds++
	p.plans = append(p.plans, float64(d.plansCached()))
	if opErr != nil {
		return opErr
	}
	return b.book.addExports(d.scrs)
}

// check runs the λ oracle over a phase's decisions.
func (b *bench) check(p *phaseResult) (verdict, error) {
	o, err := newOracle(b.w, b.seed, b.book)
	if err != nil {
		return verdict{}, err
	}
	for _, s := range b.steps {
		if err := o.advance(s.epoch, b.in.deltas(s.k)); err != nil {
			return verdict{}, err
		}
	}
	return o.check(b.in, p)
}

// Counter indices: public counters summed over a deployment's caches and
// engines, plus the Go runtime's allocation and GC totals. A phase reports
// their change across it; reading them adds nothing to the request loop.
const (
	ctrOptCalls = iota
	ctrSharedOpt
	ctrSelChecks
	ctrPlanRecosts
	ctrPublishes
	ctrWriterWaitNs
	ctrRevalidated
	ctrRevalFailed
	ctrEpochLag
	ctrRecostNs
	ctrRecostCalls
	ctrCacheHits
	ctrCacheMisses
	ctrEnvGets
	ctrEnvReuses
	ctrMallocs
	ctrAllocBytes
	ctrGCPauseNs
	numCounters
)

type counters [numCounters]int64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// readCounters reads SCR.Stats(), TemplateEngine.Timing(),
// RecostCacheCounters(), EnvPoolCounters() and runtime.MemStats.
func readCounters(c *caches) counters {
	var k counters
	for _, s := range c.scrs {
		st := s.Stats()
		k[ctrOptCalls] += st.OptCalls
		k[ctrSharedOpt] += st.SharedOptCalls
		k[ctrSelChecks] += st.SelChecks
		k[ctrPlanRecosts] += st.GetPlanRecosts
		k[ctrPublishes] += st.PublishTotal
		k[ctrWriterWaitNs] += int64(st.WriteLockWait)
		k[ctrRevalidated] += st.RevalidatedPlans
		k[ctrRevalFailed] += st.RevalFailed
		k[ctrEpochLag] += st.EpochLagFallbacks
	}
	// The env pool belongs to the optimizer, which a database's engines
	// share: count each optimizer once.
	seen := make(map[*memo.Optimizer]bool)
	for _, e := range c.engs {
		_, recostTime, _, recostCalls := e.Timing()
		k[ctrRecostNs] += int64(recostTime)
		k[ctrRecostCalls] += recostCalls
		hits, misses := e.RecostCacheCounters()
		k[ctrCacheHits] += hits
		k[ctrCacheMisses] += misses
		if !seen[e.Opt] {
			seen[e.Opt] = true
			gets, reuses := e.EnvPoolCounters()
			k[ctrEnvGets] += gets
			k[ctrEnvReuses] += reuses
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k[ctrMallocs] = int64(ms.Mallocs)
	k[ctrAllocBytes] = int64(ms.TotalAlloc)
	k[ctrGCPauseNs] = int64(ms.PauseTotalNs)
	return k
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
