// Package cluster implements multi-node statistics-epoch propagation: a
// coordinator that pushes each new statistics generation (histogram deltas
// or a resample seed) to every member node over the existing /v1 HTTP
// surface, with per-node retry, timeout and exponential backoff with
// jitter.
//
// The paper's λ guarantee is stated against one statistics generation;
// PR 5 made that explicit per process (stats.Epoch, Decision.Epoch), and
// this package makes it hold across a fleet: the coordinator enforces a
// configurable cross-node skew bound — by default it withholds generation
// N+1 until every non-quarantined member has acknowledged installing N —
// so no two healthy nodes ever serve the same template from generations
// further apart than the bound. Members that fail persistently are
// quarantined: marked degraded, excluded from the skew quorum (so one
// partitioned node cannot freeze the fleet), and re-admitted through a
// catch-up replay of every generation they missed, in order. The member
// side (internal/server's /v1/cluster/epoch) is idempotent and monotonic,
// so lost responses, retries and duplicate deliveries are all harmless.
//
// See docs/ROBUSTNESS.md for the multi-node degradation ladder
// (healthy → skew-lagging → quarantined → rejoining).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/pqo"
)

// NodeState is a member's position on the multi-node degradation ladder.
type NodeState string

const (
	// StateHealthy: the member has acknowledged every generation the skew
	// bound requires and counts toward the quorum that gates the next one.
	StateHealthy NodeState = "healthy"
	// StateLagging: the member is behind by more than the skew bound but
	// not yet quarantined; it still gates the quorum (that is the
	// withhold mechanism) while pushes retry.
	StateLagging NodeState = "skew-lagging"
	// StateQuarantined: the member failed QuarantineThreshold consecutive
	// rounds; it no longer gates the quorum and serves degraded (its own
	// skew detection flags its decisions) until it rejoins.
	StateQuarantined NodeState = "quarantined"
	// StateRejoining: a quarantined member answered a probe and is being
	// caught up by replaying its missed generations in order.
	StateRejoining NodeState = "rejoining"
)

// ErrWithheld reports that the coordinator refused to assign the next
// generation because a non-quarantined member has not acknowledged the
// current one within the skew bound. Retry after the member catches up or
// is quarantined.
var ErrWithheld = errors.New("cluster: epoch withheld: member behind skew bound")

// errEpochGap is the internal signal that a member refused an install
// because it is missing earlier generations (HTTP 409 ErrEpochGap); the
// push loop resynchronizes from the epoch the member reported.
var errEpochGap = errors.New("cluster: member reports epoch gap")

// Payload is one generation's installable content: exactly one of Deltas
// (a partial per-column histogram refresh) or ResampleSeed (a full
// statistics swap) must be set — the same contract as POST /v1/admin/stats.
type Payload struct {
	Deltas       []pqo.HistogramDelta `json:"deltas,omitempty"`
	ResampleSeed *int64               `json:"resampleSeed,omitempty"`
}

func (p Payload) validate() error {
	if (len(p.Deltas) == 0) == (p.ResampleSeed == nil) {
		return errors.New("cluster: exactly one of Deltas or ResampleSeed must be set")
	}
	return nil
}

// Config tunes a Coordinator. Members is required; every other field has a
// production-shaped default.
type Config struct {
	// Members are the base URLs of the member nodes, e.g.
	// "http://10.0.0.1:8080". Duplicates are rejected.
	Members []string
	// Client performs the RPCs; nil selects http.DefaultClient. Chaos
	// tests install a faultinject.Transport here.
	Client *http.Client
	// RPCTimeout bounds each individual RPC attempt (default 2s).
	RPCTimeout time.Duration
	// RetryLimit is the number of delivery attempts per generation per
	// node within one push round (default 4). Exhausting it counts one
	// failed round toward quarantine.
	RetryLimit int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: attempt k waits BackoffBase·2^(k-1) capped at BackoffMax,
	// scaled by uniform jitter in [0.5, 1) drawn from the seeded PRNG
	// (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QuarantineThreshold is how many consecutive failed rounds (push or
	// probe) a member survives before quarantine (default 3).
	QuarantineThreshold int
	// SkewBound is the cross-node skew the coordinator tolerates, in
	// generations: generation N+1 is assigned only once every
	// non-quarantined member has acknowledged N+1−SkewBound. The default
	// 1 admits adjacent generations only.
	SkewBound uint64
	// Workers is forwarded with every install for the member's
	// revalidation pool; <= 0 selects the member default.
	Workers int
	// Seed drives the backoff jitter PRNG (default 1), keeping chaos runs
	// reproducible.
	Seed int64
	// ProbeInterval is Run's health-probe cadence (default 2s).
	ProbeInterval time.Duration
	// InitialEpoch is the generation every member is assumed to hold at
	// startup (default 1 — freshly built systems install their seed
	// statistics as epoch 1). Probe raises the coordinator's view if a
	// member reports higher.
	InitialEpoch uint64
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
}

func (c *Config) fillDefaults() {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 4
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.SkewBound == 0 {
		c.SkewBound = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.InitialEpoch == 0 {
		c.InitialEpoch = 1
	}
}

// node is the coordinator's record of one member. All fields are guarded
// by Coordinator.mu; RPCs never run with it held.
type node struct {
	url string
	// acked is the highest generation the member confirmed installed.
	acked uint64
	// failures counts consecutive failed rounds; reset by any ack.
	failures int
	// quarantined excludes the member from the skew quorum; rejoining
	// marks an in-progress catch-up replay.
	quarantined bool
	rejoining   bool
	// pushing serializes pushes per member so a probe-triggered catch-up
	// never interleaves with an Advance push to the same node.
	pushing bool
	lastErr string
	health  string
}

// state derives the member's ladder position.
func (n *node) state(clusterEpoch, skewBound uint64) NodeState {
	switch {
	case n.quarantined && n.rejoining:
		return StateRejoining
	case n.quarantined:
		return StateQuarantined
	case clusterEpoch > n.acked && clusterEpoch-n.acked >= skewBound:
		// Behind far enough that the next assignment would be withheld
		// on this member's account.
		return StateLagging
	default:
		return StateHealthy
	}
}

// MemberStatus is the coordinator's roll-up for one member: its local
// bookkeeping plus, when produced by Probe/Status, what the member itself
// reported.
type MemberStatus struct {
	URL      string    `json:"url"`
	State    NodeState `json:"state"`
	Acked    uint64    `json:"acked"`
	Failures int       `json:"failures,omitempty"`
	LastErr  string    `json:"lastError,omitempty"`
	// Health is the member's /v1/healthz status ("" when unreachable or
	// not yet probed); ReportedEpoch / ReportedClusterEpoch /
	// LaggingInstances echo its health report.
	Health              string `json:"health,omitempty"`
	ReportedEpoch       uint64 `json:"reportedEpoch,omitempty"`
	ReportedClusterView uint64 `json:"reportedClusterEpoch,omitempty"`
	LaggingInstances    int64  `json:"laggingInstances,omitempty"`
	// Revalidation is the member's latest per-template revalidation
	// progress, rolled up from /v1/admin/epochs (Status only).
	Revalidation map[string]pqo.RevalidationProgress `json:"revalidation,omitempty"`
}

// Coordinator drives epoch propagation for one fleet. All methods are safe
// for concurrent use; RPCs never run while the state mutex is held.
type Coordinator struct {
	cfg    Config
	client *http.Client

	// rngMu guards the seeded jitter PRNG (math/rand.Rand is not
	// concurrency-safe).
	rngMu sync.Mutex
	rng   *rand.Rand

	// mu guards the member table, the assigned-epoch counter and the
	// payload history. Collect work under mu, RPC outside, re-acquire to
	// record — never block on the network under the lock.
	mu    sync.Mutex
	nodes map[string]*node
	order []string
	epoch uint64
	// history records every assigned generation's payload for catch-up
	// replay of lagging, quarantined and restarted members. It grows with
	// the epoch count, and acknowledged payloads cannot be dropped: a
	// member that restarts comes back at its initial generation, below
	// what it acknowledged, and pushNode's ErrEpochGap resync replays it
	// from there (TestRestartedMemberCatchesUp). An operator restarting
	// the coordinator restarts history (members ahead of it are
	// resynchronized via their reported epochs).
	history map[uint64]Payload

	pushRetries atomic.Int64
	ackHist     latencyHist
}

// New validates cfg and returns a Coordinator; no RPCs are performed.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: no members configured")
	}
	cfg.fillDefaults()
	c := &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nodes:   make(map[string]*node, len(cfg.Members)),
		history: make(map[uint64]Payload),
		epoch:   cfg.InitialEpoch,
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	for _, m := range cfg.Members {
		if m == "" {
			return nil, errors.New("cluster: empty member URL")
		}
		if _, dup := c.nodes[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %s", m)
		}
		c.nodes[m] = &node{url: m, acked: cfg.InitialEpoch}
		c.order = append(c.order, m)
	}
	sort.Strings(c.order)
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

// Epoch returns the highest generation the coordinator has assigned.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Members returns the coordinator's local view of every member (no RPCs).
func (c *Coordinator) Members() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStatus, 0, len(c.order))
	for _, url := range c.order {
		n := c.nodes[url]
		out = append(out, MemberStatus{
			URL: url, State: n.state(c.epoch, c.cfg.SkewBound),
			Acked: n.acked, Failures: n.failures, LastErr: n.lastErr,
			Health: n.health,
		})
	}
	return out
}

// Quarantined returns the URLs of currently quarantined members.
func (c *Coordinator) Quarantined() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, url := range c.order {
		if c.nodes[url].quarantined {
			out = append(out, url)
		}
	}
	return out
}

// Run probes the fleet every ProbeInterval — health via /v1/healthz,
// catch-up replay for reachable quarantined or lagging members — until ctx
// is cancelled. It returns ctx.Err().
func (c *Coordinator) Run(ctx context.Context) error {
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			c.Probe(ctx)
		}
	}
}

// backoff returns the jittered wait before attempt k (k >= 1):
// BackoffBase·2^(k-1) capped at BackoffMax, scaled by uniform jitter in
// [0.5, 1) so synchronized retries against a recovering member spread out.
func (c *Coordinator) backoff(k int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < k && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	c.rngMu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Locked bookkeeping helpers. Each takes the mutex briefly; none performs
// IO.

func (c *Coordinator) ackedEpoch(url string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[url].acked
}

func (c *Coordinator) payload(gen uint64) (Payload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.history[gen]
	return p, ok
}

// beginPush claims the per-member push slot; a second concurrent push to
// the same member (e.g. a probe catch-up racing an Advance) backs off.
func (c *Coordinator) beginPush(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[url]
	if n.pushing {
		return false
	}
	n.pushing = true
	return true
}

func (c *Coordinator) endPush(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[url].pushing = false
}

// recordAck notes that a member confirmed holding generation ep, resetting
// its failure streak and walking it back down the ladder (rejoining →
// healthy once caught up).
func (c *Coordinator) recordAck(url string, ep uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[url]
	if ep > n.acked {
		n.acked = ep
	}
	n.failures = 0
	n.lastErr = ""
	if n.quarantined {
		if n.acked >= c.epoch {
			n.quarantined = false
			n.rejoining = false
			c.logf("cluster: member %s rejoined at epoch %d", url, n.acked)
		} else {
			n.rejoining = true
		}
	}
}

// recordFailure counts one failed round; QuarantineThreshold consecutive
// failures quarantine the member (excluded from the skew quorum until a
// successful catch-up replay).
func (c *Coordinator) recordFailure(url string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[url]
	n.failures++
	n.lastErr = err.Error()
	if !n.quarantined && n.failures >= c.cfg.QuarantineThreshold {
		n.quarantined = true
		n.rejoining = false
		c.logf("cluster: member %s quarantined after %d consecutive failed rounds: %v",
			url, n.failures, err)
	}
}
