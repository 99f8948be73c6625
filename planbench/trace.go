package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/pqo"
)

// The traced run records spans from this package only, around calls into
// the program's public functions: the client's round trip, middleware
// around Server.Handler(), a timing wrapper in place of each
// TemplateEngine, and a replay through Directory.Lookup and SCR.Process.

// spanKind names what a span times.
type spanKind uint8

const (
	spanRequest  spanKind = iota // client: one /v1/plan round trip
	spanHandler                  // server.handler: Server.Handler() serving /v1/plan
	spanOptimize                 // engine: Optimize or OptimizeEpoch
	spanPrepare                  // engine: PrepareRecost
	spanRecost                   // engine: non-batched Recost or RecostEpoch
	spanProcess                  // core: replayed SCR.Process, labelled by Decision.Via
)

var spanNames = [...]string{"request", "server.handler", "engine.optimize", "engine.prepare_recost", "engine.recost", "core.process"}

// engineSpans are the kinds a timedEngine records.
var engineSpans = []spanKind{spanOptimize, spanPrepare, spanRecost}

// span is one timed call, in nanoseconds since its tracer started.
type span struct {
	start, end int64
	kind       spanKind
	label      uint8
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are analysed and written out after
// the measured phases.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(kind spanKind, label uint8, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, kind: kind, label: label})
	t.mu.Unlock()
}

// since returns the spans of the given kinds that started at or after
// from, in start order.
func (t *tracer) since(from int64, kinds ...spanKind) []span {
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.start >= from && slices.Contains(kinds, s.kind) {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// middleware records a server.handler span around every /v1/plan request.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != planPath {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(spanHandler, 0, start, t.now())
	})
}

// write stores the spans as CSV (kind, label, start_ns, end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,label,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", spanNames[s.kind], s.label, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedEngine stands in for a *engine.TemplateEngine in traced runs.
// Embedding forwards every method, and with them every optional interface
// SCR and the server probe for; the engine-layer calls are overridden only
// to record a span. Without the forwarding SCR would silently fall back to
// per-call recosting (no PrepareRecost) or run epoch-less (no
// OptimizeEpoch), and the traced run would measure a different program.
type timedEngine struct {
	*engine.TemplateEngine
	tr *tracer
}

var (
	_ core.BatchEngine   = (*timedEngine)(nil)
	_ core.EpochEngine   = (*timedEngine)(nil)
	_ core.CacheReporter = (*timedEngine)(nil)
	_ core.Rehydrator    = (*timedEngine)(nil)
)

func (e *timedEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	start := e.tr.now()
	cp, c, err := e.TemplateEngine.Optimize(sv)
	e.tr.add(spanOptimize, 0, start, e.tr.now())
	return cp, c, err
}

func (e *timedEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	start := e.tr.now()
	cp, c, epoch, err := e.TemplateEngine.OptimizeEpoch(sv)
	e.tr.add(spanOptimize, 0, start, e.tr.now())
	return cp, c, epoch, err
}

func (e *timedEngine) PrepareRecost(sv []float64) (*engine.PreparedInstance, error) {
	start := e.tr.now()
	pi, err := e.TemplateEngine.PrepareRecost(sv)
	e.tr.add(spanPrepare, 0, start, e.tr.now())
	return pi, err
}

func (e *timedEngine) Recost(cp *engine.CachedPlan, sv []float64) (float64, error) {
	start := e.tr.now()
	c, err := e.TemplateEngine.Recost(cp, sv)
	e.tr.add(spanRecost, 0, start, e.tr.now())
	return c, err
}

func (e *timedEngine) RecostEpoch(cp *engine.CachedPlan, sv []float64) (float64, uint64, error) {
	start := e.tr.now()
	c, epoch, err := e.TemplateEngine.RecostEpoch(cp, sv)
	e.tr.add(spanRecost, 0, start, e.tr.now())
	return c, epoch, err
}

// nest hands each parent span the child spans that lie inside it. With
// one client, or a sequential replay, parents never overlap, so a child
// belongs to the parent whose interval contains it. Both slices are in
// start order; visit must not keep inside.
func nest(parents, children []span, visit func(parent span, inside []span)) {
	ci := 0
	var inside []span
	for _, p := range parents {
		for ci < len(children) && children[ci].start < p.start {
			ci++
		}
		inside = inside[:0]
		for j := ci; j < len(children) && children[j].start < p.end; j++ {
			if children[j].end <= p.end {
				inside = append(inside, children[j])
			}
		}
		visit(p, inside)
	}
}

// requestSplit is the traced /v1/plan path taken apart request by request.
type requestSplit struct {
	handler   []int64 // server.handler span
	transport []int64 // request − handler: net/http, loopback and client
	self      []int64 // handler − engine spans inside it: server and core code
	recost    []int64 // non-batched Recost spans inside handlers
	handled   int     // requests paired with a handler span
}

func splitRequests(tr *tracer, from int64) requestSplit {
	var out requestSplit
	var handlers []span
	nest(tr.since(from, spanRequest), tr.since(from, spanHandler), func(r span, inside []span) {
		if len(inside) == 0 {
			return
		}
		h := inside[0]
		handlers = append(handlers, h)
		out.transport = append(out.transport, r.dur()-h.dur())
	})
	nest(handlers, tr.since(from, engineSpans...), func(h span, inside []span) {
		child := int64(0)
		for _, e := range inside {
			child += e.dur()
			if e.kind == spanRecost {
				out.recost = append(out.recost, e.dur())
			}
		}
		out.handler = append(out.handler, h.dur())
		out.self = append(out.self, h.dur()-child)
	})
	out.handled = len(handlers)
	return out
}

// lookupBatch is how many Directory.Lookup calls one timing covers: a
// lookup takes tens of nanoseconds, below what one clock read resolves.
const (
	lookupBatch   = 256
	lookupBatches = 400
)

// replayResult is the core layer timed outside the server.
type replayResult struct {
	tr       *tracer
	process  []int64
	byVia    [numVias][]int64
	self     []int64 // Process − engine spans inside it
	lookupNs []float64
}

// replay sends the request sequence through Directory.Lookup and
// SCR.Process on fresh caches over st (warmed first for the steady
// workloads), with engines wrapped as in the traced deployment, until the
// sequence ends or budget runs out.
func replay(st *stack, in *inputs, warm bool, budget time.Duration) (*replayResult, error) {
	tr := newTracer()
	c, err := st.newCaches(tr)
	if err != nil {
		return nil, err
	}
	if warm {
		if err := c.warm(in); err != nil {
			return nil, err
		}
	}
	dir := pqo.NewDirectory()
	for i, e := range st.entries {
		if err := dir.Attach(e.Tpl.Name, c.scrs[i]); err != nil {
			return nil, err
		}
	}
	from := tr.now()
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	for i, r := range in.reqs {
		if i%64 == 0 && !time.Now().Before(deadline) {
			break
		}
		scr, ok := dir.Lookup(in.names[r.tpl])
		if !ok {
			return nil, fmt.Errorf("replay: %s not attached", in.names[r.tpl])
		}
		start := tr.now()
		dec, err := scr.Process(ctx, in.svs[r.tpl][r.inst])
		end := tr.now()
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", in.names[r.tpl], err)
		}
		tr.add(spanProcess, uint8(dec.Via), start, end)
	}
	c.waitRevalidation()

	res := &replayResult{tr: tr}
	nest(tr.since(from, spanProcess), tr.since(from, engineSpans...), func(p span, inside []span) {
		child := int64(0)
		for _, e := range inside {
			child += e.dur()
		}
		res.process = append(res.process, p.dur())
		if int(p.label) < numVias {
			res.byVia[p.label] = append(res.byVia[p.label], p.dur())
		}
		res.self = append(res.self, p.dur()-child)
	})

	names := make([]string, lookupBatch)
	for b := 0; b < lookupBatches; b++ {
		for j := range names {
			names[j] = in.names[in.reqs[(b*lookupBatch+j)%len(in.reqs)].tpl]
		}
		found := 0
		start := time.Now()
		for _, name := range names {
			if _, ok := dir.Lookup(name); ok {
				found++
			}
		}
		elapsed := time.Since(start)
		if found != lookupBatch {
			return nil, fmt.Errorf("replay: %d of %d lookups missed", lookupBatch-found, lookupBatch)
		}
		res.lookupNs = append(res.lookupNs, float64(elapsed.Nanoseconds())/lookupBatch)
	}
	return res, nil
}
