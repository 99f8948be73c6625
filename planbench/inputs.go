package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Input sizes. Every sequence has a fixed length, so a faster program does
// the same work per lap (hot-read, epoch-churn) or per round (cold-stream)
// and the counts it reports stay comparable across versions. README.md
// ("Where the parameters come from") gives the basis of each value.
const (
	// poolSize is the number of §7.1 bucketized instances per template
	// that the steady workloads warm at set-up and then re-request: four
	// per selectivity region at the suite's largest d (10, so d+2 = 12
	// regions).
	poolSize = 48
	// steadyLen is the steady request sequence; clients replay it
	// cyclically until the measured time is up.
	steadyLen = 1 << 16
	// coldLen is one cold-stream round: that many never-seen instances,
	// sent to empty caches.
	coldLen = 60000
	// zipfS skews template popularity: the template of rank r is requested
	// in proportion to 1/(1+r)^zipfS. 0.99 is YCSB's zipfian constant.
	zipfS = 0.99
	// instanceSeed fixes the workload's instance sets: the popularity
	// ranking of the templates, each template's §7.1 pool, and the
	// cold-stream round's multiset of (template, instance) pairs. The
	// workload seed draws the request sequence from them and the
	// operator's deltas, so runs with different seeds do comparable work.
	instanceSeed = 1
	// Each operator advance rebuilds two histograms, each from deltaValues
	// sampled values: at least one per bucket of the rebuilt histogram
	// (stats.DefaultBuckets, 200).
	deltaValues = 256
)

// zipfRanks draws popularity ranks 0..n-1 with P(r) ∝ 1/(1+r)^s. Unlike
// math/rand's Zipf it accepts s ≤ 1.
type zipfRanks struct{ cdf []float64 }

func newZipfRanks(n int, s float64) *zipfRanks {
	z := &zipfRanks{cdf: make([]float64, n)}
	sum := 0.0
	for r := range z.cdf {
		sum += math.Pow(float64(r+1), -s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipfRanks) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name    string
	clients int  // concurrent closed-loop /v1/plan connections
	cold    bool // never-seen instances on empty caches, in fixed-length rounds
	churn   bool // one database attached; an operator advances its statistics
}

// workloads are the benchmark's traffic mixes; README.md says why each
// exists. Two clients is nproc on the reference host: more connections
// than CPUs would measure scheduling rather than the service.
var workloads = []workloadDef{
	{name: "hot-read", clients: 2},
	{name: "cold-stream", clients: 2, cold: true},
	{name: "epoch-churn", clients: 1, churn: true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// request is one /v1/plan call of the sequence: a template and the index
// of its instance in inputs.svs.
type request struct{ tpl, inst int32 }

// inputs is everything a run sends, generated from the seed. The server
// sees only the request bodies and the operator's admin bodies.
type inputs struct {
	seed   int64
	names  []string      // template names, index-aligned with the stack's entries
	svs    [][][]float64 // per template: its pool (steady) or its stream (cold)
	reqs   []request
	bodies [][]byte      // POST /v1/plan bodies, index-aligned with reqs
	cols   []columnRange // epoch-churn: the columns the operator refreshes
}

// columnRange is a histogram column and the value range its refreshed
// samples are drawn from.
type columnRange struct {
	table, column string
	lo, hi        float64
}

// newInputs generates a workload's request sequence over the stack's
// templates.
func newInputs(w workloadDef, st *stack, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	fixed := rand.New(rand.NewSource(instanceSeed))
	n := steadyLen
	if w.cold {
		n = coldLen
	}
	// Template popularity: a fixed permutation ranks the templates and a
	// Zipf draw picks the rank of each request. Cold-stream fixes the
	// draws too (they decide how many instances each template's stream
	// holds) and lets the seed shuffle their order below.
	rank := fixed.Perm(len(st.entries))
	drawRng := rng
	if w.cold {
		drawRng = fixed
	}
	zipf := newZipfRanks(len(st.entries), zipfS)
	tplOf := make([]int32, n)
	uses := make([]int, len(st.entries))
	for i := range tplOf {
		t := rank[zipf.draw(drawRng)]
		tplOf[i] = int32(t)
		uses[t]++
	}
	if w.cold {
		rng.Shuffle(n, func(i, j int) { tplOf[i], tplOf[j] = tplOf[j], tplOf[i] })
	}

	in := &inputs{seed: seed, names: make([]string, len(st.entries)), svs: make([][][]float64, len(st.entries))}
	bodies := make([][][]byte, len(st.entries))
	for t, e := range st.entries {
		in.names[t] = e.Tpl.Name
		m := poolSize
		if w.cold {
			m = uses[t]
		}
		setSeed := fixed.Int63()
		if m == 0 {
			continue
		}
		set, err := workload.GenerateSet(e.Tpl.Dimensions(), m, setSeed)
		if err != nil {
			return nil, fmt.Errorf("inputs for %s: %w", e.Tpl.Name, err)
		}
		in.svs[t] = make([][]float64, len(set))
		bodies[t] = make([][]byte, len(set))
		for i, q := range set {
			in.svs[t][i] = q.SV
			body, err := json.Marshal(server.PlanRequest{Template: e.Tpl.Name, SVector: q.SV})
			if err != nil {
				return nil, err
			}
			bodies[t][i] = body
		}
	}

	in.reqs = make([]request, n)
	in.bodies = make([][]byte, n)
	next := make([]int32, len(st.entries))
	for i, t := range tplOf {
		var inst int32
		if w.cold {
			inst = next[t]
			next[t]++
		} else {
			inst = int32(rng.Intn(poolSize))
		}
		in.reqs[i] = request{tpl: t, inst: inst}
		in.bodies[i] = bodies[t][inst]
	}

	if st.attached != nil {
		cols, err := refreshColumns(st.templates(), st.attached.Opt.StatsStore())
		if err != nil {
			return nil, err
		}
		in.cols = cols
	}
	return in, nil
}

// refreshColumns lists the columns the templates' predicates read, with
// each column's value range in the initial statistics. The constant
// predicate's column comes first.
func refreshColumns(tpls []*query.Template, st *stats.Store) ([]columnRange, error) {
	seen := make(map[string]bool)
	var cols []columnRange
	for _, tpl := range tpls {
		for _, p := range tpl.Preds {
			key := p.Table + "." + p.Column
			h := st.Histogram(p.Table, p.Column)
			if seen[key] || h == nil || !(h.Max() > h.Min()) {
				continue
			}
			seen[key] = true
			cols = append(cols, columnRange{table: p.Table, column: p.Column, lo: h.Min(), hi: h.Max()})
		}
	}
	sort.Slice(cols, func(i, j int) bool {
		ci, cj := cols[i].table+"."+cols[i].column, cols[j].table+"."+cols[j].column
		if fi, fj := ci == constColumn, cj == constColumn; fi != fj {
			return fi
		}
		return ci < cj
	})
	if len(cols) < 2 || cols[0].table+"."+cols[0].column != constColumn {
		return nil, fmt.Errorf("inputs: refreshable columns %v lack %s or another column", cols, constColumn)
	}
	return cols, nil
}

// deltas returns the operator's k-th statistics refresh: the constant
// predicate's column and one other drawn at random, each histogram rebuilt
// from a skewed sample over its column's range. Refreshing the constant
// predicate's column on every advance moves that template's plan costs, so
// each generation prices plans differently. It depends only on the seed
// and k, so the oracle's twin can replay it.
func (in *inputs) deltas(k int) []stats.HistogramDelta {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(k)))
	out := make([]stats.HistogramDelta, 0, 2)
	for _, c := range []int{0, 1 + rng.Intn(len(in.cols)-1)} {
		col := in.cols[c]
		skew := 0.5 + 1.5*rng.Float64()
		vals := make([]float64, deltaValues)
		for i := range vals {
			vals[i] = col.lo + (col.hi-col.lo)*math.Pow(rng.Float64(), skew)
		}
		out = append(out, stats.HistogramDelta{Table: col.table, Column: col.column, Values: vals})
	}
	return out
}

// adminBody is the POST /v1/admin/stats body of the k-th advance.
func (in *inputs) adminBody(k int) ([]byte, error) {
	return json.Marshal(server.AdminStatsRequest{Deltas: in.deltas(k)})
}
