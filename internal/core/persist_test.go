package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/pqotest"
	"repro/internal/query"
	"repro/internal/workload"
)

// realEngine builds a real TemplateEngine (which supports rehydration) over
// a 2-d TPC-H template.
func realEngine(t testing.TB) *engine.TemplateEngine {
	t.Helper()
	sys := engine.NewSystem(catalog.NewTPCH(0.05), 9)
	tpl := &query.Template{
		Name:    "persist2d",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 75_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// RealEngine is realEngine for the package's external tests.
var RealEngine = realEngine

func TestExportImportRoundTrip(t *testing.T) {
	eng := realEngine(t)
	s1, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache with a bucketized workload.
	insts, err := workload.GenerateSet(2, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range insts {
		if _, err := s1.Process(context.Background(), q.SV); err != nil {
			t.Fatal(err)
		}
	}
	st1 := s1.Stats()
	if st1.CurPlans == 0 {
		t.Fatal("warm-up cached no plans")
	}
	data, err := s1.Export()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh SCR (new process, same engine) imports the cache and serves
	// the same instances without any optimizer call.
	s2, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Import(data); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().CurPlans; got != st1.CurPlans {
		t.Errorf("imported %d plans, want %d", got, st1.CurPlans)
	}
	if got := s2.NumInstances(); got != s1.NumInstances() {
		t.Errorf("imported %d instances, want %d", got, s1.NumInstances())
	}
	optBefore := s2.Stats().OptCalls
	for _, q := range insts {
		dec, err := s2.Process(context.Background(), q.SV)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Plan == nil {
			t.Fatal("nil plan after import")
		}
	}
	if extra := s2.Stats().OptCalls - optBefore; extra > int64(len(insts))/4 {
		t.Errorf("imported cache still needed %d optimizer calls on the warm-up set", extra)
	}
}

func TestImportValidation(t *testing.T) {
	eng := realEngine(t)
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import([]byte("{")); err == nil {
		t.Error("garbage JSON should fail")
	}
	if err := s.Import([]byte(`{"plans":[],"instances":[{"v":[0.1,0.1],"planFP":"missing","c":1,"s":1,"u":1}]}`)); err == nil {
		t.Error("dangling plan reference should fail")
	}
	// Import into a non-empty cache must be rejected.
	if _, err := s.Process(context.Background(), []float64{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import(data); err == nil || !strings.Contains(err.Error(), "non-empty") {
		t.Errorf("import into non-empty cache: err = %v", err)
	}
	// Budget enforcement on import.
	s2, err := New(eng, WithLambda(2), WithPlanBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	// Build a 2-plan cache to violate the k=1 budget.
	for _, sv := range [][]float64{{1e-4, 1e-4}, {0.9, 0.9}, {1e-4, 0.9}, {0.9, 1e-4}} {
		if _, err := s3.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
	}
	if s3.Stats().CurPlans < 2 {
		t.Skip("workload produced a single plan; budget check not exercisable")
	}
	multi, err := s3.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Import(multi); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("over-budget import: err = %v", err)
	}
}

// warmExport returns the Export of a fresh SCR over eng after a small
// bucketized warm-up workload.
func warmExport(t testing.TB, eng Engine) []byte {
	t.Helper()
	s := mustSCR(t, eng, WithLambda(2))
	insts, err := workload.GenerateSet(2, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range insts {
		if _, err := s.Process(context.Background(), q.SV); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// poisonExport returns data with its first instance's vector replaced by
// [0, 0.5], which lies outside the selectivity domain (0, 1].
func poisonExport(t testing.TB, data []byte) []byte {
	t.Helper()
	var c cacheJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Instances) == 0 {
		t.Fatal("export has no instances to poison")
	}
	c.Instances[0].V = []float64{0, 0.5}
	out, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestImportAndSeedRejectOutOfRangeSelectivity: neither a snapshot nor a
// seed may store an anchor the selectivity check cannot use. A vector
// outside (0, 1] would make GLFactors fail every later instance that
// scans it, and an infinite optimal cost would make every recost ratio 0
// and so pass every cost check.
func TestImportAndSeedRejectOutOfRangeSelectivity(t *testing.T) {
	eng := realEngine(t)
	s := mustSCR(t, eng, WithLambda(2))
	if err := s.Import(poisonExport(t, warmExport(t, eng))); !errors.Is(err, ErrInvalidSelectivity) {
		t.Errorf("poisoned import: err = %v, want ErrInvalidSelectivity", err)
	}
	if n, p := s.NumInstances(), s.Stats().CurPlans; n != 0 || p != 0 {
		t.Errorf("rejected import left %d instances and %d plans", n, p)
	}

	sv := []float64{0.3, 0.3}
	cp, c, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SeedInstance([]float64{0, 0.5}, cp, c, 1); !errors.Is(err, ErrInvalidSelectivity) {
		t.Errorf("seed at [0 0.5]: err = %v, want ErrInvalidSelectivity", err)
	}
	if err := s.SeedInstance([]float64{0.5, 1.5}, cp, c, 1); !errors.Is(err, ErrInvalidSelectivity) {
		t.Errorf("seed at [0.5 1.5]: err = %v, want ErrInvalidSelectivity", err)
	}
	if err := s.SeedInstance(sv, cp, math.Inf(1), 1); err == nil {
		t.Error("seed with optCost = +Inf accepted")
	}
	if err := s.SeedInstance(sv, cp, c, math.Inf(1)); err == nil {
		t.Error("seed with subOpt = +Inf accepted")
	}
	if n := s.NumInstances(); n != 0 {
		t.Errorf("rejected seeds left %d instances", n)
	}
	if _, err := s.Process(context.Background(), []float64{0, 0.5}); !errors.Is(err, ErrInvalidSelectivity) {
		t.Errorf("Process at [0 0.5]: err = %v, want ErrInvalidSelectivity", err)
	}
}

func TestImportRequiresRehydrator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import([]byte(`{"plans":[],"instances":[]}`)); err == nil ||
		!strings.Contains(err.Error(), "rehydrate") {
		t.Errorf("non-rehydrating engine: err = %v", err)
	}
}

func TestImportedGuaranteeStillHolds(t *testing.T) {
	// After a round trip, the λ guarantee must hold for fresh instances:
	// the imported S and C values drive the checks.
	eng := realEngine(t)
	s1, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := workload.GenerateSet(2, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range warm {
		if _, err := s1.Process(context.Background(), q.SV); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s1.Export()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Import(data); err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.GenerateSet(2, 60, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range fresh {
		dec, err := s2.Process(context.Background(), q.SV)
		if err != nil {
			t.Fatal(err)
		}
		chosen, err := eng.Recost(dec.Plan, q.SV)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := eng.Optimize(q.SV)
		if err != nil {
			t.Fatal(err)
		}
		if so := chosen / opt; so > 2*(1+0.05) {
			// Allow 5% slack for real-cost-model BCG edge effects.
			t.Errorf("instance %d after import: SO = %v exceeds λ=2", i, so)
		}
	}
}

func TestInspectSnapshot(t *testing.T) {
	eng := realEngine(t)
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	insts, err := workload.GenerateSet(2, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range insts {
		if _, err := s.Process(context.Background(), q.SV); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := InspectSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Plans) != s.Stats().CurPlans {
		t.Errorf("summary has %d plans, cache has %d", len(sum.Plans), s.Stats().CurPlans)
	}
	if sum.Instances != s.NumInstances() {
		t.Errorf("summary has %d instances, cache has %d", sum.Instances, s.NumInstances())
	}
	if sum.Dimensions != 2 {
		t.Errorf("dimensions = %d, want 2", sum.Dimensions)
	}
	totalInst := 0
	for _, p := range sum.Plans {
		totalInst += p.Instances
		if p.MinCost <= 0 || p.MaxCost < p.MinCost {
			t.Errorf("plan %s has cost range [%v, %v]", p.Fingerprint, p.MinCost, p.MaxCost)
		}
	}
	if totalInst != sum.Instances {
		t.Errorf("per-plan instances sum %d != total %d", totalInst, sum.Instances)
	}
	if _, err := InspectSnapshot([]byte("{")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := InspectSnapshot([]byte(`{"plans":[],"instances":[{"v":[0.1],"planFP":"x","c":1,"s":1,"u":1}]}`)); err == nil {
		t.Error("dangling plan reference should fail")
	}
}

// TestSnapshotFileCrashSafety pins the crash-safety contract of
// WriteSnapshotFile/ReadSnapshotFile: the framed file round-trips, every
// torn or bit-flipped variant is rejected with ErrSnapshotCorrupt instead
// of being half-imported, an interrupted rewrite leaves the previous
// snapshot readable, and pre-framing files still pass through.
func TestSnapshotFileCrashSafety(t *testing.T) {
	payload := []byte(`{"plans":[],"instances":[]}`)
	newer := []byte(`{"plans":[],"instances":[],"note":"newer generation"}`)

	t.Run("roundtrip", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := WriteSnapshotFile(path, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip = %q, want %q", got, payload)
		}
	})

	t.Run("truncation-detected", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := WriteSnapshotFile(path, payload); err != nil {
			t.Fatal(err)
		}
		framed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Every proper prefix of the framed file is a possible torn write;
		// all of them must be flagged, none silently imported.
		for _, cut := range []int{len(snapshotMagic) + 2, snapshotHeaderLen, len(framed) - 1} {
			if err := os.WriteFile(path, framed[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("truncated at %d bytes: err = %v, want ErrSnapshotCorrupt", cut, err)
			}
		}
	})

	t.Run("bitflip-detected", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := WriteSnapshotFile(path, payload); err != nil {
			t.Fatal(err)
		}
		framed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		framed[snapshotHeaderLen+3] ^= 0x40
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("bit-flipped payload: err = %v, want ErrSnapshotCorrupt", err)
		}
	})

	t.Run("kill-mid-rewrite-keeps-old", func(t *testing.T) {
		// A crash between temp-file write and rename leaves the abandoned
		// temp alongside an intact previous snapshot.
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.json")
		if err := WriteSnapshotFile(path, payload); err != nil {
			t.Fatal(err)
		}
		tmp, err := os.CreateTemp(dir, "snap.json.tmp*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write(append(append([]byte{}, snapshotMagic...), newer[:10]...)); err != nil {
			t.Fatal(err)
		}
		tmp.Close() // crash here: rename never happens
		got, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("old snapshot damaged by interrupted rewrite: %q", got)
		}
		// Recovery: the next successful write supersedes cleanly.
		if err := WriteSnapshotFile(path, newer); err != nil {
			t.Fatal(err)
		}
		if got, err = ReadSnapshotFile(path); err != nil || !bytes.Equal(got, newer) {
			t.Fatalf("rewrite after crash = %q, %v, want %q", got, err, newer)
		}
	})

	t.Run("legacy-unframed-passthrough", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("legacy passthrough = %q, want %q", got, payload)
		}
	})
}
