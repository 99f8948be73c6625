package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/pqo"
)

// planBook resolves served fingerprints to plan trees, per template. It is
// filled from the caches' exports and from the oracle's own optimizations:
// every plan a cache holds was optimal for some instance, so between the
// two every served fingerprint resolves.
type planBook struct {
	byTpl []map[string]*plan.Plan
}

func newPlanBook(templates int) *planBook {
	b := &planBook{byTpl: make([]map[string]*plan.Plan, templates)}
	for i := range b.byTpl {
		b.byTpl[i] = make(map[string]*plan.Plan)
	}
	return b
}

func (b *planBook) add(t int, p *plan.Plan) {
	if _, ok := b.byTpl[t][p.Fingerprint()]; !ok {
		b.byTpl[t][p.Fingerprint()] = p
	}
}

// addExports records every plan the caches hold, read through SCR.Export.
func (b *planBook) addExports(scrs []*pqo.SCR) error {
	for t, s := range scrs {
		data, err := s.Export()
		if err != nil {
			return err
		}
		var snap struct {
			Plans []json.RawMessage `json:"plans"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("reading export: %w", err)
		}
		for _, raw := range snap.Plans {
			p, err := plan.UnmarshalPlan(raw)
			if err != nil {
				return err
			}
			b.add(t, p)
		}
	}
	return nil
}

// oracle checks decisions against λ on a twin of the suite: the same
// systems built from the same seed and, for epoch-churn, advanced through
// the same statistics deltas, so it holds every generation the server
// served. It prices the served plan with the twin optimizer's Recost of
// the plan tree and compares it with a fresh twin optimization, both at
// the epoch the decision states. It never reads the response's
// estimatedCost.
type oracle struct {
	twin   *stack
	gens   map[uint64]*memo.Optimizer // attached database: epoch id → that generation
	latest *stats.Store
	book   *planBook
	best   map[optKey]float64
	priced map[pricedKey]float64
}

type optKey struct {
	tpl, inst int32
	epoch     uint32
}

type pricedKey struct {
	optKey
	fp string
}

func newOracle(w workloadDef, seed int64, book *planBook) (*oracle, error) {
	twin, err := buildStack(w, seed)
	if err != nil {
		return nil, err
	}
	o := &oracle{twin: twin, book: book, best: make(map[optKey]float64), priced: make(map[pricedKey]float64)}
	if a := twin.attached; a != nil {
		o.gens = map[uint64]*memo.Optimizer{a.Opt.Epoch().ID: a.Opt}
		o.latest = a.Opt.StatsStore()
	}
	return o, nil
}

// advance installs the twin's copy of one operator advance.
func (o *oracle) advance(epoch uint64, deltas []stats.HistogramDelta) error {
	a := o.twin.attached
	if a == nil {
		return fmt.Errorf("oracle: advance to epoch %d without an attached database", epoch)
	}
	if _, dup := o.gens[epoch]; dup {
		return fmt.Errorf("oracle: epoch %d installed twice", epoch)
	}
	next, err := o.latest.Apply(deltas)
	if err != nil {
		return err
	}
	o.gens[epoch] = memo.NewOptimizer(a.Cat, a.Opt.Model, next)
	o.latest = next
	return nil
}

// optimizer returns the twin optimizer of template t's database at epoch.
func (o *oracle) optimizer(t int, epoch uint64) (*memo.Optimizer, error) {
	e := o.twin.entries[t]
	if e.Sys != o.twin.attached {
		if id := e.Sys.Opt.Epoch().ID; epoch != id {
			return nil, fmt.Errorf("oracle: %s decided at epoch %d, its database is at %d", e.Tpl.Name, epoch, id)
		}
		return e.Sys.Opt, nil
	}
	g, ok := o.gens[epoch]
	if !ok {
		return nil, fmt.Errorf("oracle: %s decided at epoch %d, which no advance installed", e.Tpl.Name, epoch)
	}
	return g, nil
}

// verdict is the oracle's finding over a set of decisions.
type verdict struct {
	Checked    int64   `json:"checked"`
	Violations int64   `json:"violations"` // non-degraded decisions above λ
	Unresolved int64   `json:"unresolved"` // served fingerprints no plan resolves
	Degraded   int64   `json:"degraded"`
	ServedCost float64 `json:"servedCost"`
	OptCost    float64 `json:"optimalCost"`
	Worst      float64 `json:"worstSubopt"` // over non-degraded decisions
	Example    string  `json:"example,omitempty"`
}

func (v verdict) ok() bool { return v.Checked > 0 && v.Violations == 0 && v.Unresolved == 0 }

// check prices every decision of p. Optimal costs come first: optimizing
// each decided instance also registers the plans the caches served from it.
func (o *oracle) check(in *inputs, p *phaseResult) (verdict, error) {
	var v verdict
	for _, d := range p.decs {
		if _, err := o.optimum(in, d); err != nil {
			return v, err
		}
	}
	for _, d := range p.decs {
		opt, err := o.optimum(in, d)
		if err != nil {
			return v, err
		}
		r := in.reqs[d.req]
		fp := p.fps[d.fp]
		served, ok, err := o.price(in, d, fp)
		if err != nil {
			return v, err
		}
		if !ok {
			v.Unresolved++
			if v.Example == "" {
				v.Example = fmt.Sprintf("%s: served fingerprint %s resolves to no plan", in.names[r.tpl], fp)
			}
			continue
		}
		v.Checked++
		v.ServedCost += served
		v.OptCost += opt
		if d.flags&flagDegraded != 0 {
			v.Degraded++
			continue
		}
		ratio := served / opt
		v.Worst = max(v.Worst, ratio)
		if ratio > lambda*(1+1e-9) {
			v.Violations++
			if v.Example == "" {
				v.Example = fmt.Sprintf("%s instance %d at epoch %d: %s served at %.4g × optimal (λ=%g)",
					in.names[r.tpl], r.inst, d.epoch, viaNames[d.via], ratio, lambda)
			}
		}
	}
	return v, nil
}

// optimum is the twin's optimal cost for the decision's instance at its
// stated epoch.
func (o *oracle) optimum(in *inputs, d decision) (float64, error) {
	r := in.reqs[d.req]
	k := optKey{tpl: r.tpl, inst: r.inst, epoch: d.epoch}
	if c, ok := o.best[k]; ok {
		return c, nil
	}
	opt, err := o.optimizer(int(r.tpl), uint64(d.epoch))
	if err != nil {
		return 0, err
	}
	p, c, err := opt.Optimize(o.twin.entries[r.tpl].Tpl, in.svs[r.tpl][r.inst])
	if err != nil {
		return 0, fmt.Errorf("oracle: optimizing %s: %w", in.names[r.tpl], err)
	}
	o.book.add(int(r.tpl), p)
	o.best[k] = c
	return c, nil
}

// price is the twin's cost of the served plan at the decision's instance
// and epoch; ok is false when the fingerprint resolves to no plan.
func (o *oracle) price(in *inputs, d decision, fp string) (float64, bool, error) {
	r := in.reqs[d.req]
	k := pricedKey{optKey: optKey{tpl: r.tpl, inst: r.inst, epoch: d.epoch}, fp: fp}
	if c, ok := o.priced[k]; ok {
		return c, true, nil
	}
	p := o.book.byTpl[r.tpl][fp]
	if p == nil {
		return 0, false, nil
	}
	opt, err := o.optimizer(int(r.tpl), uint64(d.epoch))
	if err != nil {
		return 0, false, err
	}
	c, err := opt.Recost(p, o.twin.entries[r.tpl].Tpl, in.svs[r.tpl][r.inst])
	if err != nil {
		return 0, false, fmt.Errorf("oracle: recosting %s: %w", in.names[r.tpl], err)
	}
	o.priced[k] = c
	return c, true, nil
}
