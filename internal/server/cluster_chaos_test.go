// Package server_test holds the multi-node cluster chaos suite. It lives
// in the external test package because it drives the epoch coordinator
// (repro/internal/cluster), which imports this server package for its wire
// types — an internal test file would create an import cycle.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/pqo"
)

const clusterChaosLambda = 2.0

// chaosFullSet reports whether the -chaos.full flag (registered by the
// internal server test package, shared through the one test binary) is on.
func chaosFullSet() bool {
	f := flag.Lookup("chaos.full")
	return f != nil && f.Value.String() == "true"
}

// chaosNode is one member of the in-process fleet: a real TPCH system and
// SCR behind the full HTTP surface, plus the live listener the coordinator
// pushes through.
type chaosNode struct {
	h  http.Handler
	ts *httptest.Server
}

// chaosSQL is the cluster chaos template. Its constant predicate puts
// lineitem.l_discount in its footprint, so every resample moves its cost
// epoch and sends the members through revalidation, and the λ oracle
// checks decisions at more than one generation. The l_quantity delta
// leaves the footprint alone, so decisions keep stating the earlier
// generation across it.
const chaosSQL = `SELECT * FROM lineitem WHERE lineitem.l_shipdate <= ?0
	AND lineitem.l_quantity <= ?1 AND lineitem.l_discount <= 0.05`

func newChaosNode(t *testing.T) *chaosNode {
	t.Helper()
	sys := pqo.NewSystem(pqo.TPCH(0.01), 3)
	tpl, err := pqo.ParseTemplate("cq", chaosSQL, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(clusterChaosLambda))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{})
	if err := s.Register("cq", tpl.SQL(), eng, scr); err != nil {
		t.Fatal(err)
	}
	s.SetSystem(sys)
	h := s.Handler()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &chaosNode{h: h, ts: ts}
}

// hostRouter routes each coordinator RPC through a per-member transport,
// so one member can be partitioned or lossy while the others stay clean.
type hostRouter struct {
	mu sync.Mutex
	m  map[string]http.RoundTripper
}

func (hr *hostRouter) set(host string, rt http.RoundTripper) {
	hr.mu.Lock()
	defer hr.mu.Unlock()
	hr.m[host] = rt
}

func (hr *hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	hr.mu.Lock()
	rt := hr.m[req.URL.Host]
	hr.mu.Unlock()
	if rt == nil {
		rt = http.DefaultTransport
	}
	return rt.RoundTrip(req)
}

// planRec is one recorded /plan response. s0/s1 bracket the request on a
// global sequence, so two records overlap in time iff their intervals
// intersect — the basis of the cross-node skew assertion.
type planRec struct {
	member   int
	svIdx    int
	fp       string
	epoch    uint64
	nodeEp   uint64
	degraded bool
	reason   string
	s0, s1   int64
}

// TestChaosCluster drives three member nodes and an epoch coordinator
// through five generation advances under transport chaos — drops, delays,
// duplicated deliveries, lost responses, and a full partition of one
// member — and asserts the paper-level contract end to end:
//
//  1. overlapping responses from healthy members never come from
//     statistics generations more than one apart (the skew bound),
//  2. every unflagged response is λ-optimal against a clean twin system
//     evaluated at the generation the decision states,
//  3. the partitioned member is quarantined, rejoins via an in-order
//     catch-up replay, and the fleet converges.
//
// Run with -race (scripts/check.sh does; -chaos selects the full profile).
func TestChaosCluster(t *testing.T) {
	perMember, poolSize := 50, 20
	if chaosFullSet() {
		perMember, poolSize = 350, 36
	}

	nodes := make([]*chaosNode, 3)
	urls := make([]string, 3)
	hosts := make([]string, 3)
	for i := range nodes {
		nodes[i] = newChaosNode(t)
		urls[i] = nodes[i].ts.URL
		hosts[i] = nodes[i].ts.Listener.Addr().String()
	}

	router := &hostRouter{m: make(map[string]http.RoundTripper)}
	coord, err := cluster.New(cluster.Config{
		Members:             urls,
		Client:              &http.Client{Transport: router},
		RPCTimeout:          10 * time.Second,
		RetryLimit:          10,
		BackoffBase:         time.Millisecond,
		BackoffMax:          10 * time.Millisecond,
		QuarantineThreshold: 2,
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A recurring selectivity pool shared by all members: plans derive
	// from optimizations over these points, which is what lets the twin
	// reconstruct every served fingerprint later.
	rng := rand.New(rand.NewSource(11))
	pool := make([][]float64, poolSize)
	for i := range pool {
		pool[i] = []float64{rng.Float64()*0.9 + 0.05, rng.Float64()*0.9 + 0.05}
	}
	for m, n := range nodes {
		for i, sv := range pool {
			if resp, code := chaosPlan(t, n.h, sv); code != http.StatusOK || resp == nil {
				t.Fatalf("member %d warmup %d: status %d", m, i, code)
			}
		}
	}

	var (
		seq  atomic.Int64
		mu   sync.Mutex
		recs [][]planRec = make([][]planRec, 3) // per round
	)
	// drive runs per-member traffic workers while during() executes, and
	// records every response under the given round.
	drive := func(round int, during func()) {
		var wg sync.WaitGroup
		for m := range nodes {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(int64(100*round + m)))
				for i := 0; i < perMember; i++ {
					svIdx := wrng.Intn(len(pool))
					s0 := seq.Add(1)
					resp, code := chaosPlan(t, nodes[m].h, pool[svIdx])
					s1 := seq.Add(1)
					if code != http.StatusOK || resp == nil {
						t.Errorf("round %d member %d: status %d", round, m, code)
						continue
					}
					if resp.Degraded && resp.DegradedReason == "" {
						t.Errorf("round %d member %d: degraded response without a reason", round, m)
					}
					mu.Lock()
					recs[round] = append(recs[round], planRec{
						member: m, svIdx: svIdx, fp: resp.Fingerprint,
						epoch: resp.Epoch, nodeEp: resp.NodeEpoch,
						degraded: resp.Degraded, reason: resp.DegradedReason,
						s0: s0, s1: s1,
					})
					mu.Unlock()
				}
			}(m)
		}
		during()
		wg.Wait()
	}

	var payloads []cluster.Payload
	advance := func(p cluster.Payload) {
		t.Helper()
		for attempt := 0; attempt < 60; attempt++ {
			if _, err := coord.Advance(ctx, p); err == nil {
				payloads = append(payloads, p)
				return
			} else if !errors.Is(err, cluster.ErrWithheld) {
				t.Fatalf("advance: %v", err)
			}
			coord.Probe(ctx)
		}
		t.Fatal("advance never cleared the withhold")
	}
	seedOf := func(s int64) cluster.Payload { return cluster.Payload{ResampleSeed: &s} }

	// Round 0 — lossy fleet: member 0 drops requests, member 1 delays and
	// loses responses (forcing duplicate deliveries into the idempotent
	// install endpoint), member 2 duplicates deliveries outright. Two
	// generations advance through this.
	injDrop := faultinject.New(41).Set(faultinject.SiteTransport,
		faultinject.Point{Rate: 0.3, Fault: faultinject.Fault{Drop: true}})
	injLose := faultinject.New(42).Set(faultinject.SiteTransport,
		faultinject.Point{Rate: 0.3, Fault: faultinject.Fault{Latency: 2 * time.Millisecond, DropResponse: true}})
	injDup := faultinject.New(43).Set(faultinject.SiteTransport,
		faultinject.Point{Rate: 0.3, Fault: faultinject.Fault{Latency: time.Millisecond, Duplicate: true}})
	router.set(hosts[0], faultinject.NewTransport(http.DefaultTransport, injDrop))
	router.set(hosts[1], faultinject.NewTransport(http.DefaultTransport, injLose))
	router.set(hosts[2], faultinject.NewTransport(http.DefaultTransport, injDup))

	drive(0, func() {
		coord.Probe(ctx)
		advance(seedOf(201))
		coord.Probe(ctx)
		advance(cluster.Payload{Deltas: []pqo.HistogramDelta{{
			Table: "lineitem", Column: "l_quantity", Values: quantitySample(),
		}}})
		coord.Probe(ctx)
	})
	if got := coord.Epoch(); got != 3 {
		t.Fatalf("epoch after lossy round = %d, want 3", got)
	}
	if q := coord.Quarantined(); len(q) != 0 {
		t.Fatalf("lossy faults caused quarantine: %v", q)
	}
	if injDrop.Injected()+injLose.Injected()+injDup.Injected() == 0 {
		t.Error("lossy round injected no transport faults — it proved nothing")
	}
	checkSkew(t, recs[0], map[int]bool{0: true, 1: true, 2: true})

	// Round 1 — partition: member 2 becomes unreachable to the
	// coordinator (clients still reach it). Two advances: the first
	// records its failure, the second quarantines it and proceeds, so the
	// healthy majority keeps absorbing statistics updates.
	injPart := faultinject.PartitionProfile(44)
	router.set(hosts[2], faultinject.NewTransport(http.DefaultTransport, injPart))
	drive(1, func() {
		advance(seedOf(203))
		advance(seedOf(204))
	})
	if got := coord.Epoch(); got != 5 {
		t.Fatalf("epoch after partition round = %d, want 5", got)
	}
	if q := coord.Quarantined(); len(q) != 1 || q[0] != urls[2] {
		t.Fatalf("quarantined after partition = %v, want [%s]", q, urls[2])
	}
	checkSkew(t, recs[1], map[int]bool{0: true, 1: true})

	// Round 2 — rejoin: heal the partition; a probe replays generations
	// 4..5 into member 2 in order, then one more generation advances with
	// the whole fleet healthy again.
	router.set(hosts[2], http.DefaultTransport)
	coord.Probe(ctx)
	if q := coord.Quarantined(); len(q) != 0 {
		t.Fatalf("member 2 still quarantined after heal+probe: %v", q)
	}
	drive(2, func() {
		advance(seedOf(205))
	})
	if got := coord.Epoch(); got != 6 {
		t.Fatalf("final epoch = %d, want 6", got)
	}
	checkSkew(t, recs[2], map[int]bool{0: true, 1: true, 2: true})

	// Convergence: every member reports the final generation with zero
	// skew from its own status endpoint.
	for m, n := range nodes {
		w := httptest.NewRecorder()
		n.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
		var st server.ClusterStatusResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("member %d status: %v", m, err)
		}
		if st.Epoch != 6 || st.Skew != 0 {
			t.Errorf("member %d converged to %+v, want epoch 6 skew 0", m, st)
		}
	}

	// Every member's write-domain publication surface must have moved:
	// one attached domain per node and snapshot publications from the
	// warmup, miss traffic and revalidation across the five advances.
	for m, n := range nodes {
		w := httptest.NewRecorder()
		n.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		mBody := w.Body.String()
		if v := chaosMetric(t, mBody, "pqo_write_domains"); v != 1 {
			t.Errorf("member %d pqo_write_domains = %g, want 1", m, v)
		}
		if v := chaosMetric(t, mBody, `pqo_publish_total{template="cq"}`); v <= 0 {
			t.Errorf("member %d pqo_publish_total did not move (%g)", m, v)
		}
		if v := chaosMetric(t, mBody, `pqo_writer_wait_seconds_total{template="cq"}`); v < 0 {
			t.Errorf("member %d pqo_writer_wait_seconds_total negative (%g)", m, v)
		}
	}

	// The λ oracle: a clean twin system replays the exact payload
	// sequence; every unflagged response must be λ-optimal at the
	// generation it states. Plans are reconstructed by optimizing the
	// shared pool at every generation — the only way plans enter a
	// member's cache.
	verifyLambda(t, payloads, pool, recs)

	// The coordinator's metric surface names the fleet counters.
	var buf bytes.Buffer
	coord.WriteMetrics(&buf)
	for _, name := range []string{
		"pqo_cluster_epoch_skew", "pqo_cluster_push_retries_total",
		"pqo_cluster_quarantined_nodes", "pqo_cluster_ack_latency_seconds",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("coordinator metrics missing %s", name)
		}
	}

	// Cumulatively, every chaos mode must have actually fired: drops and
	// lost responses (installed for the whole run) and the partition.
	for name, inj := range map[string]*faultinject.Injector{
		"drop": injDrop, "lost-response": injLose, "partition": injPart,
	} {
		if inj.Injected() == 0 {
			t.Errorf("no %s faults injected over the whole run", name)
		}
	}

	total, degraded := 0, 0
	for _, rs := range recs {
		for _, r := range rs {
			total++
			if r.degraded {
				degraded++
			}
		}
	}
	t.Logf("cluster chaos: %d responses (%d degraded) across 5 advances; %d/%d/%d faults injected per member",
		total, degraded, injDrop.Injected(), injLose.Injected(), injPart.Injected())
}

// chaosPlan posts one /v1/plan request straight into a member's handler
// (client traffic does not traverse the faulty coordinator transport).
func chaosPlan(t *testing.T, h http.Handler, sv []float64) (*server.PlanResponse, int) {
	t.Helper()
	body, _ := json.Marshal(server.PlanRequest{Template: "cq", SVector: sv})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return nil, w.Code
	}
	var resp server.PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding plan response: %v", err)
	}
	return &resp, w.Code
}

// checkSkew asserts the cross-node bound: any two time-overlapping,
// unflagged responses from members in the healthy set must come from
// node generations at most one apart.
func checkSkew(t *testing.T, rs []planRec, healthy map[int]bool) {
	t.Helper()
	for i := range rs {
		a := rs[i]
		if a.degraded || !healthy[a.member] {
			continue
		}
		for j := i + 1; j < len(rs); j++ {
			b := rs[j]
			if b.degraded || !healthy[b.member] || a.member == b.member {
				continue
			}
			if a.s0 < b.s1 && b.s0 < a.s1 {
				d := a.nodeEp - b.nodeEp
				if b.nodeEp > a.nodeEp {
					d = b.nodeEp - a.nodeEp
				}
				if d > 1 {
					t.Errorf("skew bound violated: members %d@%d and %d@%d served concurrently (%d apart)",
						a.member, a.nodeEp, b.member, b.nodeEp, d)
				}
			}
		}
	}
}

// verifyLambda replays the pushed payload sequence on a pristine twin
// system and holds every unflagged recorded response to the λ guarantee at
// its stated generation.
func verifyLambda(t *testing.T, payloads []cluster.Payload, pool [][]float64, recs [][]planRec) {
	t.Helper()
	twin := pqo.NewSystem(pqo.TPCH(0.01), 3)
	tpl, err := pqo.ParseTemplate("cq", chaosSQL, twin.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := twin.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}

	byEpoch := make(map[uint64][]planRec)
	for _, rs := range recs {
		for _, r := range rs {
			if r.degraded {
				continue
			}
			if r.epoch == 0 {
				t.Errorf("unflagged response without a stated epoch: %+v", r)
				continue
			}
			byEpoch[r.epoch] = append(byEpoch[r.epoch], r)
		}
	}

	planByFP := make(map[string]*pqo.CachedPlan)
	checked := 0
	evalGen := func(gen uint64) {
		// Derive this generation's plan space over the workload pool;
		// plans first derived at earlier generations stay in the map.
		for _, sv := range pool {
			cp, _, err := eng.Optimize(sv)
			if err != nil {
				t.Fatalf("twin optimize at generation %d: %v", gen, err)
			}
			planByFP[cp.Fingerprint()] = cp
		}
		for _, r := range byEpoch[gen] {
			cp, ok := planByFP[r.fp]
			if !ok {
				t.Errorf("served plan %q not derivable from the workload at generation <= %d", r.fp, gen)
				continue
			}
			cost, err := eng.Recost(cp, pool[r.svIdx])
			if err != nil {
				t.Fatalf("twin recost at generation %d: %v", gen, err)
			}
			_, opt, err := eng.Optimize(pool[r.svIdx])
			if err != nil {
				t.Fatalf("twin optimize at generation %d: %v", gen, err)
			}
			if cost > clusterChaosLambda*opt*(1+1e-9) {
				t.Errorf("λ violated: member %d at generation %d, sv %v: served %g > %g·%g",
					r.member, r.epoch, pool[r.svIdx], cost, clusterChaosLambda, opt)
			}
			checked++
		}
	}

	gen := uint64(1)
	evalGen(gen)
	for _, p := range payloads {
		var next *pqo.StatsStore
		var err error
		if p.ResampleSeed != nil {
			next = twin.ResampleStats(*p.ResampleSeed)
		} else {
			next, err = twin.Opt.StatsStore().Apply(p.Deltas)
		}
		if err != nil {
			t.Fatalf("twin replay of generation %d: %v", gen+1, err)
		}
		twin.AdvanceEpoch(next)
		gen++
		evalGen(gen)
	}
	if checked == 0 {
		t.Fatal("λ verification checked no responses")
	}
	t.Logf("λ verified %d responses stated at %d of %d generations", checked, len(byEpoch), gen)
}

// quantitySample is the deterministic value sample behind the delta
// generation.
func quantitySample() []float64 {
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i%97)*0.37 + 1
	}
	return vals
}

// chaosMetric extracts one series' value from a Prometheus text scrape;
// a missing series is fatal (the exposition surface regressed).
func chaosMetric(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics missing series %q", series)
	return 0
}
