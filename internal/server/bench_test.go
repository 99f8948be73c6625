package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/pqotest"
	"repro/internal/suite"
	"repro/pqo"
)

var benchSeed atomic.Int64

// BenchmarkServerParallel drives the full HTTP stack with b.RunParallel
// over mixed traffic: ~90% repeats of a warm instance set (cache hits on
// SCR's lock-free snapshot read path) and ~10% fresh instances (misses
// that optimize and store the plan under the template's write-domain
// mutex).
func BenchmarkServerParallel(b *testing.B) {
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(11)), 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("bench", "SELECT synthetic", eng, scr); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	warmRNG := rand.New(rand.NewSource(3))
	warm := make([][][]byte, 16)
	for i := range warm {
		sv := pqotest.RandomSVector(warmRNG, 4)
		body, _ := json.Marshal(PlanRequest{Template: "bench", SVector: sv})
		warm[i] = [][]byte{body}
		resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(benchSeed.Add(1)))
		for pb.Next() {
			var body []byte
			if rng.Float64() < 0.9 {
				body = warm[rng.Intn(len(warm))][0]
			} else {
				body, _ = json.Marshal(PlanRequest{Template: "bench", SVector: pqotest.RandomSVector(rng, 4)})
			}
			resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// BenchmarkRegisterSuite registers the 90 suite templates into a fresh
// Server, as a deployment does before it serves. The engines and plan
// caches are built once, outside the timing: Register does not modify a
// cache when snapshots are disabled.
func BenchmarkRegisterSuite(b *testing.B) {
	systems, err := suite.NewSystems(1)
	if err != nil {
		b.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		b.Fatal(err)
	}
	engs := make([]pqo.Engine, len(entries))
	scrs := make([]*pqo.SCR, len(entries))
	for i, e := range entries {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			b.Fatal(err)
		}
		if scrs[i], err = pqo.New(eng, pqo.WithLambda(2)); err != nil {
			b.Fatal(err)
		}
		engs[i] = eng
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		for j, e := range entries {
			if err := s.Register(e.Tpl.Name, "", engs[j], scrs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(entries)), "templates")
}
