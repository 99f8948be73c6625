package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pqotest"
	"repro/pqo"
)

// TestRegistryUnderConcurrentRegistration registers templates in
// scattered name order while readers use the ones already registered:
// /v1/plan never answers 404 for a registered template, and every
// /v1/templates answer is sorted and lists only names that resolve. The
// registrar waits for the readers after each registration, so every
// directory state is read.
func TestRegistryUnderConcurrentRegistration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	names := make([]string, n)
	for i, j := range rng.Perm(n) {
		names[i] = fmt.Sprintf("t%03d", j)
	}
	s := New(Config{})
	h := s.Handler()

	const readers = 2
	var registered, rounds atomic.Int64
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		failed.Store(true)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, name := range names {
			if failed.Load() {
				return
			}
			scr, err := pqo.New(eng, pqo.WithLambda(2))
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Register(name, "", eng, scr); err != nil {
				t.Error(err)
				return
			}
			registered.Store(int64(i + 1))
			want := rounds.Load() + readers
			for deadline := time.Now().Add(5 * time.Second); rounds.Load() < want && !failed.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				if k := registered.Load(); k > 0 {
					name := names[rng.Intn(int(k))]
					body, _ := json.Marshal(PlanRequest{Template: name, SVector: pqotest.RandomSVector(rng, 2)})
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
					if w.Code != http.StatusOK {
						fail("registered template %q: /v1/plan status %d body %s", name, w.Code, w.Body)
						return
					}
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/templates", nil))
				var infos []TemplateInfo
				if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
					fail("/v1/templates: %v (body %s)", err, w.Body)
					return
				}
				if !sort.SliceIsSorted(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name }) {
					fail("/v1/templates unsorted: %v", infos)
					return
				}
				for _, info := range infos {
					if s.entry(info.Name) == nil {
						fail("/v1/templates lists %q, which does not resolve", info.Name)
						return
					}
				}
				rounds.Add(1)
			}
		}(int64(r))
	}
	<-done
	wg.Wait()
	if failed.Load() {
		return
	}

	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/templates", nil))
	var infos []TemplateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != n {
		t.Fatalf("/v1/templates lists %d templates, want %d", len(infos), n)
	}
	for i, info := range infos {
		if info.Name != sorted[i] {
			t.Fatalf("/v1/templates[%d] = %q, want %q", i, info.Name, sorted[i])
		}
	}
}

// TestRegisterConcurrentDuplicates races two registrations of each name:
// exactly one succeeds, and the name resolves to the winner's cache.
func TestRegisterConcurrentDuplicates(t *testing.T) {
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(19)), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("q%02d", i)
		var scrs [2]*pqo.SCR
		var errs [2]error
		var wg sync.WaitGroup
		for k := range scrs {
			if scrs[k], err = pqo.New(eng, pqo.WithLambda(2)); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = s.Register(name, "", eng, scrs[k])
			}(k)
		}
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("%s: registrations returned %v and %v, want exactly one error", name, errs[0], errs[1])
		}
		winner := scrs[0]
		if errs[0] != nil {
			winner = scrs[1]
		}
		if e := s.entry(name); e == nil || e.scr != winner {
			t.Fatalf("%s resolves to %v, want the winning registration's cache", name, e)
		}
	}
}
