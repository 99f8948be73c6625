package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/pqo"
)

// gate wraps a member's handler with a switchable outage: while down, every
// request answers 500 — a member that is reachable at the TCP level but
// persistently failing, the shape that must lead to quarantine.
type gate struct {
	down atomic.Bool
	h    http.Handler
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		http.Error(w, `{"error":"injected outage","sentinel":"ErrInjected"}`, http.StatusInternalServerError)
		return
	}
	g.h.ServeHTTP(w, r)
}

// newMember builds a full member node: a real TPCH system with one
// registered template behind the versioned HTTP surface.
func newMember(t *testing.T) (*httptest.Server, *server.Server, *gate) {
	t.Helper()
	sys := pqo.NewSystem(pqo.TPCH(0.01), 3)
	s := server.New(server.Config{})
	tpl, err := pqo.ParseTemplate("q",
		`SELECT * FROM lineitem WHERE lineitem.l_shipdate <= ?0 AND lineitem.l_quantity <= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("q", tpl.SQL(), eng, scr); err != nil {
		t.Fatal(err)
	}
	s.SetSystem(sys)
	g := &gate{h: s.Handler()}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return ts, s, g
}

// fastConfig returns a Config tuned for tests: tight timeouts, tiny
// backoff, deterministic jitter.
func fastConfig(members ...string) Config {
	return Config{
		Members:     members,
		RPCTimeout:  5 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Seed:        7,
	}
}

func seedPayload(seed int64) Payload {
	s := seed
	return Payload{ResampleSeed: &s}
}

// TestAdvancePropagatesToAllMembers drives two generations — a full
// resample and a per-column delta — through a three-member fleet and
// asserts every member installs both, in order, and reports zero skew.
func TestAdvancePropagatesToAllMembers(t *testing.T) {
	var urls []string
	var servers []*server.Server
	for i := 0; i < 3; i++ {
		ts, s, _ := newMember(t)
		urls = append(urls, ts.URL)
		servers = append(servers, s)
	}
	c, err := New(fastConfig(urls...))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	id, err := c.Advance(ctx, seedPayload(101))
	if err != nil || id != 2 {
		t.Fatalf("first advance = (%d, %v), want (2, nil)", id, err)
	}
	id, err = c.Advance(ctx, Payload{Deltas: []pqo.HistogramDelta{{
		Table: "lineitem", Column: "l_quantity", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8},
	}}})
	if err != nil || id != 3 {
		t.Fatalf("second advance = (%d, %v), want (3, nil)", id, err)
	}

	for i, m := range c.Members() {
		if m.State != StateHealthy || m.Acked != 3 {
			t.Errorf("member %d = %+v, want healthy at 3", i, m)
		}
	}
	// Each member's own status endpoint agrees: installed generation 3,
	// observed cluster generation 3, zero skew.
	for i, ts := range urls {
		st, err := c.rpcClusterStatus(ctx, ts)
		if err != nil {
			t.Fatalf("member %d status: %v", i, err)
		}
		if st.Epoch != 3 || st.ClusterEpoch != 3 || st.Skew != 0 {
			t.Errorf("member %d status = %+v, want epoch 3, cluster 3, skew 0", i, st)
		}
	}
	// The epoch log records the installs as cluster-initiated.
	epochs, err := c.rpcAdminEpochs(ctx, urls[0])
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for _, rec := range epochs {
		reasons = append(reasons, rec.Reason)
	}
	if got := strings.Join(reasons, ","); got != "initial,cluster-resample,cluster-delta" {
		t.Errorf("epoch log reasons = %s", got)
	}
	_ = servers
}

// TestAdvanceWithheldUntilMemberCatchesUp asserts the skew bound: with a
// member failing and quarantine disabled (huge threshold), the coordinator
// assigns at most one generation beyond it and withholds the next.
func TestAdvanceWithheldUntilMemberCatchesUp(t *testing.T) {
	tsA, _, _ := newMember(t)
	tsB, _, gB := newMember(t)
	cfg := fastConfig(tsA.URL, tsB.URL)
	cfg.QuarantineThreshold = 1000
	cfg.RetryLimit = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	gB.down.Store(true)
	// Assigning generation 2 is allowed — every member has generation 1,
	// which is within the default bound of the new generation.
	if id, err := c.Advance(ctx, seedPayload(50)); err != nil || id != 2 {
		t.Fatalf("advance with lagging member = (%d, %v), want (2, nil)", id, err)
	}
	// Generation 3 must be withheld: B never acknowledged 2.
	if _, err := c.Advance(ctx, seedPayload(51)); !errors.Is(err, ErrWithheld) {
		t.Fatalf("second advance error = %v, want ErrWithheld", err)
	}
	if got := c.Epoch(); got != 2 {
		t.Fatalf("epoch after withheld advance = %d, want 2", got)
	}
	var lagging bool
	for _, m := range c.Members() {
		if m.URL == tsB.URL && m.State == StateLagging {
			lagging = true
		}
	}
	if !lagging {
		t.Errorf("member B not reported skew-lagging: %+v", c.Members())
	}

	// Heal B: the withheld generation goes through.
	gB.down.Store(false)
	if id, err := c.Advance(ctx, seedPayload(51)); err != nil || id != 3 {
		t.Fatalf("advance after heal = (%d, %v), want (3, nil)", id, err)
	}
	for _, m := range c.Members() {
		if m.State != StateHealthy || m.Acked != 3 {
			t.Errorf("member %s = %+v, want healthy at 3", m.URL, m)
		}
	}
}

// TestQuarantineAndRejoin walks the full degradation ladder: a
// persistently failing member is quarantined (and stops gating the
// quorum), then rejoins through a probe-driven catch-up replay of every
// generation it missed, in order.
func TestQuarantineAndRejoin(t *testing.T) {
	tsA, _, _ := newMember(t)
	tsB, _, _ := newMember(t)
	tsC, _, gC := newMember(t)
	cfg := fastConfig(tsA.URL, tsB.URL, tsC.URL)
	cfg.QuarantineThreshold = 2
	cfg.RetryLimit = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	gC.down.Store(true)
	if id, err := c.Advance(ctx, seedPayload(60)); err != nil || id != 2 {
		t.Fatalf("advance 1 = (%d, %v)", id, err)
	}
	// The converge round for generation 3 fails C a second time, tripping
	// quarantine — which removes it from the quorum, so the advance goes
	// through instead of being withheld.
	if id, err := c.Advance(ctx, seedPayload(61)); err != nil || id != 3 {
		t.Fatalf("advance 2 = (%d, %v)", id, err)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != tsC.URL {
		t.Fatalf("quarantined = %v, want [%s]", q, tsC.URL)
	}
	// Further advances proceed without C.
	if id, err := c.Advance(ctx, seedPayload(62)); err != nil || id != 4 {
		t.Fatalf("advance 3 = (%d, %v)", id, err)
	}

	// Heal C; a probe re-admits it by replaying generations 2..4.
	gC.down.Store(false)
	c.Probe(ctx)
	if q := c.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after heal+probe: %v", q)
	}
	for _, m := range c.Members() {
		if m.State != StateHealthy || m.Acked != 4 {
			t.Errorf("member %s = %+v, want healthy at 4", m.URL, m)
		}
	}
	// C really holds generation 4 (not just the coordinator's belief),
	// and its install log shows the replayed generations in order.
	st, err := c.rpcClusterStatus(ctx, tsC.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 4 || st.Skew != 0 {
		t.Errorf("rejoined member status = %+v, want epoch 4 skew 0", st)
	}
	epochs, err := c.rpcAdminEpochs(ctx, tsC.URL)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, rec := range epochs {
		ids = append(ids, rec.Epoch)
	}
	if len(ids) != 4 {
		t.Fatalf("rejoined member epoch log = %v, want 1..4", ids)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("rejoined member installed out of order: %v", ids)
		}
	}
}

// swapHandler serves through whichever handler it holds, so a test can
// replace a member's process behind an unchanged URL.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// TestRestartedMemberCatchesUp restarts a member after the whole fleet
// acknowledged several generations: the new process is back at its
// initial generation, below what the coordinator recorded, and the next
// advance must replay it from there through the ErrEpochGap resync. This
// is why the coordinator keeps acknowledged payloads.
func TestRestartedMemberCatchesUp(t *testing.T) {
	tsA, _, _ := newMember(t)
	_, _, gB := newMember(t)
	sw := &swapHandler{}
	sw.h.Store(http.Handler(gB))
	tsB := httptest.NewServer(sw)
	t.Cleanup(tsB.Close)
	c, err := New(fastConfig(tsA.URL, tsB.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for gen := uint64(2); gen <= 4; gen++ {
		if id, err := c.Advance(ctx, seedPayload(int64(90+gen))); err != nil || id != gen {
			t.Fatalf("advance to %d = (%d, %v)", gen, id, err)
		}
	}

	_, _, restarted := newMember(t)
	sw.h.Store(http.Handler(restarted))
	if id, err := c.Advance(ctx, seedPayload(95)); err != nil || id != 5 {
		t.Fatalf("advance after the restart = (%d, %v), want (5, nil)", id, err)
	}
	st, err := c.rpcClusterStatus(ctx, tsB.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 5 {
		t.Errorf("restarted member at epoch %d, want 5 after replaying 2..5", st.Epoch)
	}
	for _, m := range c.Members() {
		if m.State != StateHealthy || m.Acked != 5 {
			t.Errorf("member %s = %+v, want healthy at 5", m.URL, m)
		}
	}
}

// TestPushSurvivesLossyTransport runs advances through a faulty transport
// that drops requests, drops responses (forcing duplicate deliveries into
// the idempotent member endpoint) and injects latency; the retry loop must
// still converge, and the retry counter must show it worked for it.
func TestPushSurvivesLossyTransport(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts, _, _ := newMember(t)
		urls = append(urls, ts.URL)
	}
	inj := faultinject.New(99).Set(faultinject.SiteTransport, faultinject.Point{
		Rate:  0.4,
		Fault: faultinject.Fault{Drop: true},
	})
	cfg := fastConfig(urls...)
	cfg.Client = &http.Client{Transport: faultinject.NewTransport(http.DefaultTransport, inj)}
	cfg.RetryLimit = 12
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for gen := uint64(2); gen <= 4; gen++ {
		id, err := c.Advance(ctx, seedPayload(int64(70+gen)))
		if err != nil || id != gen {
			t.Fatalf("advance to %d = (%d, %v)", gen, id, err)
		}
	}
	for _, m := range c.Members() {
		if m.State != StateHealthy || m.Acked != 4 {
			t.Errorf("member %s = %+v, want healthy at 4", m.URL, m)
		}
	}
	if inj.Injected() == 0 {
		t.Error("no transport faults injected — the run proved nothing")
	}
	if c.pushRetries.Load() == 0 {
		t.Error("lossy transport produced zero retries")
	}
}

// TestStaleCoordinatorCannotReplay: a coordinator started ahead of the
// fleet (history it does not have) must fail the push rather than invent
// generations, and the member must stay where it was.
func TestStaleCoordinatorCannotReplay(t *testing.T) {
	ts, _, _ := newMember(t)
	cfg := fastConfig(ts.URL)
	cfg.InitialEpoch = 5
	cfg.QuarantineThreshold = 1000
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if id, err := c.Advance(ctx, seedPayload(80)); err != nil || id != 6 {
		t.Fatalf("advance = (%d, %v), want (6, nil): assignment itself is not blocked", id, err)
	}
	// The push cannot succeed: the member is at 1 and generations 2..5
	// are not in this coordinator's history.
	st, err := c.rpcClusterStatus(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Errorf("member advanced to %d through a gap", st.Epoch)
	}
	m := c.Members()[0]
	if m.Failures == 0 || !strings.Contains(m.LastErr, "no recorded payload") {
		t.Errorf("member record = %+v, want a recorded replay failure", m)
	}
}

// TestBackoffBounds pins the jittered exponential backoff envelope:
// attempt k waits in [half, full] of BackoffBase·2^(k-1), capped at
// BackoffMax.
func TestBackoffBounds(t *testing.T) {
	cfg := fastConfig("http://unused")
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffMax = 80 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		want := cfg.BackoffBase << (k - 1)
		if want > cfg.BackoffMax {
			want = cfg.BackoffMax
		}
		for i := 0; i < 200; i++ {
			got := c.backoff(k)
			if got < want/2 || got > want {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", k, got, want/2, want)
			}
		}
	}
}

// TestPayloadValidation rejects ambiguous generations before any RPC.
func TestPayloadValidation(t *testing.T) {
	c, err := New(fastConfig("http://unused"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Advance(ctx, Payload{}); err == nil {
		t.Error("empty payload accepted")
	}
	s := int64(1)
	if _, err := c.Advance(ctx, Payload{ResampleSeed: &s, Deltas: []pqo.HistogramDelta{{}}}); err == nil {
		t.Error("double payload accepted")
	}
	if c.Epoch() != 1 {
		t.Errorf("invalid payloads moved the epoch to %d", c.Epoch())
	}
}

// TestNewRejectsBadConfigs covers constructor validation.
func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no members accepted")
	}
	if _, err := New(Config{Members: []string{"http://a", "http://a"}}); err == nil {
		t.Error("duplicate members accepted")
	}
	if _, err := New(Config{Members: []string{""}}); err == nil {
		t.Error("empty member URL accepted")
	}
}
