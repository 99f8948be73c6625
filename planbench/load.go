package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

const planPath = "/v1/plan"

// Decision provenance codes, in core.Check order.
const (
	viaOptimizer = iota
	viaSelectivity
	viaCost
	viaInference
	viaFallback
	numVias
)

var viaNames = [numVias]string{"optimizer", "selectivity-check", "cost-check", "inference", "degraded-fallback"}

const (
	flagShared uint8 = 1 << iota
	flagDegraded
)

// decision is one /v1/plan answer, reduced to what the oracle and the via
// mix need. It keeps no cost: the oracle prices the plan itself.
type decision struct {
	req   int32 // index into the request sequence
	fp    int32 // index into phaseResult.fps
	epoch uint32
	via   uint8
	flags uint8
}

// planAnswer is the part of server.PlanResponse the client reads.
type planAnswer struct {
	Via         string `json:"via"`
	Shared      bool   `json:"shared"`
	Degraded    bool   `json:"degraded"`
	Epoch       uint64 `json:"epoch"`
	NodeEpoch   uint64 `json:"nodeEpoch"`
	Fingerprint string `json:"fingerprint"`
}

// cursor hands sequence positions to the closed-loop clients. A steady
// cursor wraps around the sequence until its deadline; a round cursor
// (zero deadline) hands out each position once.
type cursor struct {
	pos      atomic.Int64
	n        int64
	deadline time.Time
}

func (c *cursor) next() (int, bool) {
	i := c.pos.Add(1) - 1
	if c.deadline.IsZero() {
		return int(i), i < c.n
	}
	return int(i % c.n), time.Now().Before(c.deadline)
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	lat        []int64 // ns per successful request
	decs       []decision
	fps        []string
	fpID       map[string]int32
	attempted  int64
	failed     int64 // transport errors and non-2xx responses
	malformed  int64 // 200 responses that are not a well-formed decision
	firstError string
}

// drive runs `clients` closed-loop clients over cur, each on its own
// keep-alive connection, and returns when the cursor is exhausted.
func drive(base string, in *inputs, clients int, cur *cursor, tr *tracer) []*clientLog {
	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for c := range logs {
		l := &clientLog{fpID: make(map[string]int32)}
		logs[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(hc, base+planPath, in, cur, tr)
		}()
	}
	wg.Wait()
	return logs
}

// run sends requests until the cursor runs out. Latency runs from the
// send until the whole response body is read; decoding it comes after.
func (l *clientLog) run(hc *http.Client, url string, in *inputs, cur *cursor, tr *tracer) {
	var buf bytes.Buffer
	for {
		i, ok := cur.next()
		if !ok {
			return
		}
		l.attempted++
		var traced int64
		if tr != nil {
			traced = tr.now()
		}
		start := time.Now()
		resp, err := hc.Post(url, "application/json", bytes.NewReader(in.bodies[i]))
		if err != nil {
			l.fail(err.Error())
			continue
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		if tr != nil {
			tr.add(spanRequest, 0, traced, tr.now())
		}
		switch {
		case err != nil:
			l.fail(err.Error())
		case resp.StatusCode != http.StatusOK:
			l.fail(fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes())))
		default:
			l.lat = append(l.lat, int64(elapsed))
			l.record(int32(i), buf.Bytes())
		}
	}
}

func (l *clientLog) fail(msg string) {
	l.failed++
	if l.firstError == "" {
		l.firstError = msg
	}
}

// record decodes one 200 response into a decision, counting it malformed
// unless it names a known check, a fingerprint and an epoch no newer than
// the node's.
func (l *clientLog) record(req int32, body []byte) {
	var a planAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		l.malformed++
		return
	}
	via := -1
	for code, name := range viaNames {
		if a.Via == name {
			via = code
		}
	}
	if via < 0 || a.Fingerprint == "" || a.Epoch == 0 || a.Epoch > a.NodeEpoch {
		l.malformed++
		if l.firstError == "" {
			l.firstError = "malformed decision: " + string(body)
		}
		return
	}
	id, ok := l.fpID[a.Fingerprint]
	if !ok {
		id = int32(len(l.fps))
		l.fps = append(l.fps, a.Fingerprint)
		l.fpID[a.Fingerprint] = id
	}
	var flags uint8
	if a.Shared {
		flags |= flagShared
	}
	if a.Degraded {
		flags |= flagDegraded
	}
	l.decs = append(l.decs, decision{req: req, fp: id, epoch: uint32(a.Epoch), via: uint8(via), flags: flags})
}

// operatorPeriod spaces the epoch-churn operator's statistics advances.
const operatorPeriod = 50 * time.Millisecond

// drainPoll is how often the operator polls /v1/healthz while it waits
// for revalidation to drain; drainTimeout bounds the wait.
const (
	drainPoll    = 200 * time.Microsecond
	drainTimeout = 10 * time.Second
)

// advanceStep is one operator cycle.
type advanceStep struct {
	k           int           // index of the delta set (inputs.deltas)
	epoch       uint64        // the generation the advance installed
	admin       time.Duration // POST /v1/admin/stats round trip
	drain       time.Duration // from the advance until no lagging instance remained
	scrape      time.Duration // GET /v1/metrics round trip
	scrapeBytes int
}

// operator is the epoch-churn second connection: it posts the seeded
// histogram deltas to /v1/admin/stats, waits until /v1/healthz reports no
// lagging instance, scrapes /v1/metrics, and repeats every operatorPeriod.
type operator struct {
	base  string
	in    *inputs
	hc    *http.Client
	next  int
	steps []advanceStep
}

func newOperator(base string, in *inputs, next int) *operator {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &operator{base: base, in: in, next: next, hc: &http.Client{Transport: transport, Timeout: 30 * time.Second}}
}

// run cycles until stop is closed; it always finishes the cycle in hand,
// so the caches are drained when it returns.
func (o *operator) run(stop <-chan struct{}) error {
	defer o.hc.CloseIdleConnections()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		start := time.Now()
		if err := o.cycle(); err != nil {
			return err
		}
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(start.Add(operatorPeriod))):
		}
	}
}

func (o *operator) cycle() error {
	body, err := o.in.adminBody(o.next)
	if err != nil {
		return err
	}
	step := advanceStep{k: o.next}
	start := time.Now()
	var adv server.AdminStatsResponse
	if _, err := o.call(http.MethodPost, "/v1/admin/stats", body, &adv); err != nil {
		return err
	}
	step.admin = time.Since(start)
	step.epoch = adv.Epoch
	for {
		var h server.HealthStatus
		if _, err := o.call(http.MethodGet, "/v1/healthz", nil, &h); err != nil {
			return err
		}
		if h.LaggingInstances == 0 {
			break
		}
		if time.Since(start) > drainTimeout {
			return fmt.Errorf("operator: %d instances still lagging %v after advance to epoch %d", h.LaggingInstances, drainTimeout, adv.Epoch)
		}
		time.Sleep(drainPoll)
	}
	step.drain = time.Since(start)
	scrape := time.Now()
	n, err := o.call(http.MethodGet, "/v1/metrics", nil, nil)
	if err != nil {
		return err
	}
	step.scrape, step.scrapeBytes = time.Since(scrape), n
	o.steps = append(o.steps, step)
	o.next++
	return nil
}

// call performs one operator request, decoding a 200 JSON body into v
// when v is non-nil, and returns the body size.
func (o *operator) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, o.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := o.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("operator %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("operator %s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("operator %s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			return 0, fmt.Errorf("operator %s %s: %w", method, path, err)
		}
	}
	return len(data), nil
}

// scrapeMetrics times n GETs of /v1/metrics on a fresh connection and
// returns the median duration and the last body size.
func scrapeMetrics(base string, n int) (time.Duration, int, error) {
	o := newOperator(base, nil, 0)
	defer o.hc.CloseIdleConnections()
	durs := make([]int64, 0, n)
	size := 0
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		if size, err = o.call(http.MethodGet, "/v1/metrics", nil, nil); err != nil {
			return 0, 0, err
		}
		durs = append(durs, int64(time.Since(start)))
	}
	return time.Duration(quantile(durs, 0.5)), size, nil
}
