package core

import (
	"bytes"
	"context"
	"testing"
)

// FuzzImport drives SCR.Import, the trust boundary a snapshot file
// crosses on restart. Import must never panic; a rejected snapshot must
// leave the cache empty; an accepted one must serve valid instances
// without error and export a fixed point: importing its export again
// exports the same bytes.
func FuzzImport(f *testing.F) {
	eng := realEngine(f)
	good := warmExport(f, eng)
	f.Add(good)
	f.Add(poisonExport(f, good))
	f.Add([]byte(`{"plans":[],"instances":[]}`))
	probes := [][]float64{{0.2, 0.3}, {0.01, 0.9}, {0.5, 0.5}, {1, 1}, {1e-4, 1e-4}}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := mustSCR(t, eng, WithLambda(2))
		if err := s.Import(data); err != nil {
			if n, p := s.NumInstances(), s.Stats().CurPlans; n != 0 || p != 0 {
				t.Fatalf("rejected import (%v) left %d instances and %d plans", err, n, p)
			}
			return
		}
		once, err := s.Export()
		if err != nil {
			t.Fatalf("export after an accepted import: %v", err)
		}
		again := mustSCR(t, eng, WithLambda(2))
		if err := again.Import(once); err != nil {
			t.Fatalf("re-importing an accepted import's export: %v", err)
		}
		twice, err := again.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("export is not a fixed point of import:\n%s\n%s", once, twice)
		}
		for _, sv := range probes {
			if _, err := s.Process(context.Background(), sv); err != nil {
				t.Fatalf("Process(%v) after an accepted import: %v", sv, err)
			}
		}
	})
}
