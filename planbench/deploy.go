package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/suite"
	"repro/pqo"
)

// stack is one built suite: the four database systems and the templates a
// workload serves from them.
type stack struct {
	systems *suite.Systems
	entries []suite.Entry
	// attached is the database whose statistics the epoch-churn operator
	// advances through Server.SetSystem; nil for the other workloads.
	attached *engine.System
}

// buildStack builds the 90-template suite over freshly built systems.
// Epoch-churn keeps only the TPC-H templates, as Server.SetSystem manages
// one database and every registered engine must share its optimizer, and
// adds constTemplate.
func buildStack(w workloadDef, seed int64) (*stack, error) {
	systems, err := suite.NewSystems(seed)
	if err != nil {
		return nil, err
	}
	entries, err := suite.Build(systems)
	if err != nil {
		return nil, err
	}
	st := &stack{systems: systems, entries: entries}
	if w.churn {
		st.attached = systems.TPCH
		st.entries = nil
		for _, e := range entries {
			if e.Sys == systems.TPCH {
				st.entries = append(st.entries, e)
			}
		}
		e, err := constTemplate(systems.TPCH)
		if err != nil {
			return nil, err
		}
		st.entries = append(st.entries, e)
	}
	return st, nil
}

// constColumn is the column of constTemplate's constant predicate; every
// epoch-churn advance refreshes it.
const constColumn = "orders.o_orderdate"

// constTemplate is a lineitem–orders join with two parameterized
// predicates on lineitem and a constant one, o_orderdate within the first
// 2% of its value range. The suite's templates have no constant
// predicates, and only constant predicates read the statistics, so without
// this template no statistics advance would move any plan's cost. With it,
// an advance changes the optimal plan of about one instance in five, and
// for about one in a hundred the previous generation's plan costs more
// than 2x optimal.
func constTemplate(sys *engine.System) (suite.Entry, error) {
	table, column, _ := strings.Cut(constColumn, ".")
	h := sys.Opt.StatsStore().Histogram(table, column)
	key := sys.Cat.Table("orders").Column("o_orderkey")
	if h == nil || key == nil || key.Distinct < 1 {
		return suite.Entry{}, fmt.Errorf("constTemplate: missing statistics for %s or orders.o_orderkey", constColumn)
	}
	tpl := &query.Template{
		Name:    "planbench_li_ord_const",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders", LeftCol: "l_orderkey", RightCol: "o_orderkey",
			Selectivity: 1 / float64(key.Distinct)}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "lineitem", Column: "l_quantity", Op: query.LE, Param: 1},
			{Table: table, Column: column, Op: query.LE, Param: -1, Value: h.Min() + 0.02*(h.Max()-h.Min())},
		},
	}
	return suite.Entry{Tpl: tpl, Sys: sys}, tpl.Validate()
}

func (st *stack) templates() []*query.Template {
	out := make([]*query.Template, len(st.entries))
	for i, e := range st.entries {
		out[i] = e.Tpl
	}
	return out
}

// caches is one set of template engines and SCR plan caches over a stack,
// index-aligned with the stack's entries.
type caches struct {
	engs []*engine.TemplateEngine // the engines, for their counters
	apis []pqo.Engine             // what SCR and the server call: engs, or their timing wrappers
	scrs []*pqo.SCR
}

// newCaches builds fresh engines and empty caches at λ. With a tracer,
// every engine sits behind a timedEngine that records its calls.
func (st *stack) newCaches(tr *tracer) (*caches, error) {
	c := &caches{}
	for _, e := range st.entries {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			return nil, err
		}
		var api pqo.Engine = eng
		if tr != nil {
			api = &timedEngine{TemplateEngine: eng, tr: tr}
		}
		scr, err := pqo.New(api, pqo.WithLambda(lambda))
		if err != nil {
			return nil, err
		}
		c.engs = append(c.engs, eng)
		c.apis = append(c.apis, api)
		c.scrs = append(c.scrs, scr)
	}
	return c, nil
}

// warm processes every pool instance of every template, template by
// template, twice: the second pass settles instances whose first decision
// a later insertion would change, so the measured phase starts from the
// steady state.
func (c *caches) warm(in *inputs) error {
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		for t, pool := range in.svs {
			for _, sv := range pool {
				if _, err := c.scrs[t].Process(ctx, sv); err != nil {
					return fmt.Errorf("warming %s: %w", in.names[t], err)
				}
			}
		}
	}
	return nil
}

// plansCached is the paper's numPlans summed over templates.
func (c *caches) plansCached() int {
	n := 0
	for _, s := range c.scrs {
		n += s.Stats().CurPlans
	}
	return n
}

// instances returns the cached instance entries summed over templates and
// the largest count of one template.
func (c *caches) instances() (total, largest int) {
	for _, s := range c.scrs {
		n := s.NumInstances()
		total += n
		largest = max(largest, n)
	}
	return total, largest
}

// waitRevalidation blocks until no background revalidation run is left.
func (c *caches) waitRevalidation() {
	for _, s := range c.scrs {
		if r := s.CurrentRevalidation(); r != nil {
			<-r.Done()
		}
	}
}

// deployment is one plan service: caches registered with an
// internal/server.Server that serves a loopback TCP listener.
type deployment struct {
	*caches
	srv    *server.Server
	tr     *tracer      // non-nil for a traced deployment
	traced *http.Server // serves Handler() behind the span middleware when traced
	ln     net.Listener
	url    string
	served chan error
	used   bool // a measured round has run on it
}

// deploy registers fresh caches over st with a new server and starts
// serving on 127.0.0.1. The untraced service runs through Server.Serve;
// the traced one serves the same Handler() behind the span middleware,
// with the header timeout Server.Serve uses.
func deploy(st *stack, tr *tracer) (*deployment, error) {
	c, err := st.newCaches(tr)
	if err != nil {
		return nil, err
	}
	d := &deployment{caches: c, srv: server.New(server.Config{}), tr: tr, served: make(chan error, 1)}
	for i, e := range st.entries {
		if err := d.srv.Register(e.Tpl.Name, "", c.apis[i], c.scrs[i]); err != nil {
			return nil, err
		}
	}
	if st.attached != nil {
		d.srv.SetSystem(st.attached)
	}
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + d.ln.Addr().String()
	if tr == nil {
		go func() { d.served <- d.srv.Serve(d.ln) }()
	} else {
		d.traced = &http.Server{Handler: tr.middleware(d.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { d.served <- d.traced.Serve(d.ln) }()
	}
	return d, nil
}

// close stops the server, waits for its serving goroutine and for any
// background revalidation, so nothing the deployment started outlives it.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if d.traced != nil {
		err = d.traced.Shutdown(ctx)
	} else {
		err = d.srv.Shutdown(ctx)
	}
	// Closing the listener also ends a Serve that had not yet installed
	// its http.Server when Shutdown ran; its error is expected then.
	d.ln.Close()
	<-d.served
	d.waitRevalidation()
	return err
}
