package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pqotest"
)

// snapshotFingerprint deep-copies everything an RCU reader may dereference
// from a published snapshot: the entry pointer slices, each entry's
// selectivity vector and plan binding, the plan list, and the
// log-selectivity array. Atomic fields (anchor, usage, quarantine) are the designed
// mutable channel and are deliberately excluded.
type snapshotFingerprint struct {
	version int64
	insts   []*instanceEntry
	vecs    [][]float64
	pps     []*planEntry
	plans   []*planEntry
	logs    []float64
	planFPs []string
}

func fingerprintSnapshot(snap *cacheSnapshot) snapshotFingerprint {
	f := snapshotFingerprint{
		version: snap.version,
		insts:   append([]*instanceEntry(nil), snap.instances...),
		plans:   append([]*planEntry(nil), snap.plans...),
		logs:    append([]float64(nil), snap.logs...),
	}
	for _, e := range snap.instances {
		f.vecs = append(f.vecs, append([]float64(nil), e.v...))
		f.pps = append(f.pps, e.pp)
	}
	for _, pe := range snap.plans {
		f.planFPs = append(f.planFPs, pe.fp)
	}
	return f
}

// verify re-reads the snapshot and fails if anything diverged from the
// fingerprint taken at publication time.
func (f *snapshotFingerprint) verify(t *testing.T, snap *cacheSnapshot) {
	t.Helper()
	if snap.version != f.version {
		t.Errorf("snapshot version mutated: %d -> %d", f.version, snap.version)
	}
	if len(snap.instances) != len(f.insts) {
		t.Fatalf("snapshot instance list resized: %d -> %d", len(f.insts), len(snap.instances))
	}
	for i, e := range snap.instances {
		if e != f.insts[i] {
			t.Fatalf("snapshot instance %d swapped after publication", i)
		}
		if e.pp != f.pps[i] {
			t.Fatalf("instance %d plan binding mutated after publication", i)
		}
		if len(e.v) != len(f.vecs[i]) {
			t.Fatalf("instance %d vector resized after publication", i)
		}
		for d := range e.v {
			if e.v[d] != f.vecs[i][d] {
				t.Fatalf("instance %d vector dim %d mutated: %v -> %v",
					i, d, f.vecs[i][d], e.v[d])
			}
		}
	}
	if len(snap.plans) != len(f.plans) {
		t.Fatalf("snapshot plan list resized: %d -> %d", len(f.plans), len(snap.plans))
	}
	for i, pe := range snap.plans {
		if pe != f.plans[i] || pe.fp != f.planFPs[i] {
			t.Fatalf("snapshot plan %d mutated after publication", i)
		}
	}
	if len(snap.logs) != len(f.logs) {
		t.Fatalf("snapshot log-selectivity array resized: %d -> %d", len(f.logs), len(snap.logs))
	}
	for i, x := range snap.logs {
		if x != f.logs[i] {
			t.Fatalf("snapshot log-selectivity %d mutated after publication: %v -> %v", i, f.logs[i], x)
		}
	}
}

// TestSnapshotImmutableUnderWriterChurn is the RCU design's load-bearing
// invariant: once published, a cacheSnapshot is never mutated — writers
// build replacements, readers keep scanning old snapshots indefinitely.
// Readers here capture a snapshot, deep-fingerprint it, wait out heavy
// concurrent writer churn (inserts, evictions, sweeps),
// and then verify the captured snapshot byte-for-byte. Run under -race:
// the fingerprint re-reads would also race with any in-place writer
// mutation the comparison failed to catch semantically.
func TestSnapshotImmutableUnderWriterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	eng, err := pqotest.RandomEngine(rng, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A small plan budget forces evictions and the writers' periodic
	// sweeps drop redundant plans: instance-list rewrites and full index
	// rebuilds, the mutations most likely to touch a published array if
	// the copy-on-write discipline slipped.
	s, err := New(eng, WithLambda(2), WithPlanBudget(4), WithStoreAlways())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := s.Process(ctx, pqotest.RandomSVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers    = 4
		perWriter  = 120
		readRounds = 40
	)
	streams := make([][][]float64, writers)
	for w := range streams {
		streams[w] = make([][]float64, perWriter)
		for i := range streams[w] {
			streams[w][i] = pqotest.RandomSVector(rng, 3)
		}
	}

	var (
		wg    sync.WaitGroup
		swept atomic.Int64
	)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(stream [][]float64) {
			defer wg.Done()
			for i, sv := range stream {
				if _, err := s.Process(ctx, sv); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 39 {
					n, err := s.SweepRedundantPlans()
					if err != nil {
						t.Error(err)
						return
					}
					swept.Add(int64(n))
				}
			}
		}(streams[w])
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for r := 0; r < readRounds; r++ {
			snap := s.snapshot()
			fp := fingerprintSnapshot(snap)
			// Hold the snapshot across real writer churn: wait until the
			// published version has moved several publications past ours
			// (or the writers finish), then verify our old snapshot.
			for s.snapshot().version < fp.version+3 {
				select {
				case <-stop:
					fp.verify(t, snap)
					return
				default:
					runtime.Gosched()
				}
			}
			fp.verify(t, snap)
			if t.Failed() {
				return
			}
		}
	}()

	// Wait for writers, then release the reader: stop unblocks a round
	// still waiting for publications that will never come.
	wg.Wait()
	close(stop)
	<-readerDone

	// Version must have advanced monotonically through the churn and the
	// final snapshot must be internally consistent.
	final := s.snapshot()
	if final.version <= 0 {
		t.Fatalf("final snapshot version %d, want > 0", final.version)
	}
	if s.Stats().Evictions+swept.Load() == 0 {
		t.Fatal("no eviction or sweep drop: the churn never rewrote the instance list")
	}
	if d := s.eng.Dimensions(); len(final.logs) != d*len(final.instances) {
		t.Fatalf("final log-selectivity array holds %d values, instance list needs %d×%d",
			len(final.logs), len(final.instances), d)
	}
}
