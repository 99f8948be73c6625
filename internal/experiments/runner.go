// Package experiments implements every experiment of the paper's evaluation
// (§7 and Appendices D–H): one function per figure/table, each returning
// structured rows and able to print the same series the paper reports. The
// CLI (cmd/pqobench) and the benchmark harness (bench_test.go) both drive
// this package, so a figure is regenerated identically either way.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/suite"
	"repro/internal/workload"
)

// Config scales an experiment run. The defaults regenerate the paper's
// qualitative results in seconds; raise M and NumTemplates towards the
// paper's 1000–2000 instances × 90 templates for full-scale runs.
type Config struct {
	// NumTemplates caps the suite size (0 = all 90 templates).
	NumTemplates int
	// M is the instances per sequence (paper: 1000, or 2000 for d > 3).
	M int
	// Seed drives all pseudo-randomness.
	Seed int64
	// Orderings selects the Appendix H.1 orderings (nil = all five).
	Orderings []workload.Ordering
	// Parallel is the number of sequences run concurrently per technique
	// (0 or 1 = sequential). Techniques are per-sequence objects and the
	// engines are concurrency-safe, so parallel runs are deterministic in
	// everything but wall time.
	Parallel int
	// Out receives the printed report (nil = discard).
	Out io.Writer
}

func (c *Config) normalize() {
	if c.M <= 0 {
		c.M = 200
	}
	if c.Seed == 0 {
		c.Seed = 20170514 // SIGMOD'17 opening day
	}
	if len(c.Orderings) == 0 {
		c.Orderings = workload.AllOrderings
	}
}

// Runner owns the systems, suite and prepared workloads for experiments.
type Runner struct {
	cfg     Config
	systems *suite.Systems
	entries []suite.Entry

	mu       sync.Mutex
	prepared map[string][]workload.Instance // template -> prepared base set
	engines  map[string]*engine.TemplateEngine
}

// NewRunner builds the systems and template suite.
func NewRunner(cfg Config) (*Runner, error) {
	cfg.normalize()
	systems, err := suite.NewSystems(cfg.Seed)
	if err != nil {
		return nil, err
	}
	entries, err := suite.Build(systems)
	if err != nil {
		return nil, err
	}
	if cfg.NumTemplates > 0 && cfg.NumTemplates < len(entries) {
		// Take a spread across the suite rather than a prefix of one
		// catalog: stride through the list.
		stride := len(entries) / cfg.NumTemplates
		if stride < 1 {
			stride = 1
		}
		var picked []suite.Entry
		for i := 0; i < len(entries) && len(picked) < cfg.NumTemplates; i += stride {
			picked = append(picked, entries[i])
		}
		entries = picked
	}
	return &Runner{
		cfg:      cfg,
		systems:  systems,
		entries:  entries,
		prepared: make(map[string][]workload.Instance),
		engines:  make(map[string]*engine.TemplateEngine),
	}, nil
}

// Entries exposes the selected template set.
func (r *Runner) Entries() []suite.Entry { return r.entries }

// Systems exposes the four database systems.
func (r *Runner) Systems() *suite.Systems { return r.systems }

// Config returns the normalized configuration.
func (r *Runner) Config() Config { return r.cfg }

// engineFor returns (building once) the TemplateEngine for an entry.
func (r *Runner) engineFor(e suite.Entry) (*engine.TemplateEngine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if eng, ok := r.engines[e.Tpl.Name]; ok {
		return eng, nil
	}
	eng, err := e.Sys.EngineFor(e.Tpl)
	if err != nil {
		return nil, err
	}
	r.engines[e.Tpl.Name] = eng
	return eng, nil
}

// preparedSet returns (generating and ground-truthing once) the base
// instance set for a template at the configured M.
func (r *Runner) preparedSet(e suite.Entry, m int) ([]workload.Instance, *engine.TemplateEngine, error) {
	eng, err := r.engineFor(e)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s/%d", e.Tpl.Name, m)
	if set, ok := r.cachedSet(key); ok {
		return set, eng, nil
	}
	base, err := workload.GenerateSet(e.Tpl.Dimensions(), m, r.cfg.Seed+int64(len(e.Tpl.Name)))
	if err != nil {
		return nil, nil, err
	}
	base, err = workload.Prepare(eng, base)
	if err != nil {
		return nil, nil, err
	}
	r.storeSet(key, base)
	return base, eng, nil
}

// cachedSet reads a prepared instance set under the lock.
func (r *Runner) cachedSet(key string) ([]workload.Instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set, ok := r.prepared[key]
	return set, ok
}

// storeSet records a prepared instance set under the lock.
func (r *Runner) storeSet(key string, set []workload.Instance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepared[key] = set
}

// Sequences yields every (template × ordering) sequence at the configured M.
func (r *Runner) Sequences() ([]*SeqCtx, error) {
	var out []*SeqCtx
	for _, e := range r.entries {
		base, eng, err := r.preparedSet(e, r.cfg.M)
		if err != nil {
			return nil, err
		}
		for _, o := range r.cfg.Orderings {
			ordered, err := workload.Order(base, o, r.cfg.Seed+int64(o)+17)
			if err != nil {
				return nil, err
			}
			out = append(out, &SeqCtx{
				Entry:    e,
				Eng:      eng,
				Ordering: o,
				Seq: &workload.Sequence{
					Name:      fmt.Sprintf("%s/%s", e.Tpl.Name, o),
					Tpl:       e.Tpl,
					Instances: ordered,
				},
			})
		}
	}
	return out, nil
}

// SeqCtx pairs one ordered sequence with its engine.
type SeqCtx struct {
	Entry    suite.Entry
	Eng      *engine.TemplateEngine
	Ordering workload.Ordering
	Seq      *workload.Sequence
}

// Factory constructs a fresh technique instance bound to an engine.
type Factory struct {
	Label string
	New   func(eng core.Engine) (core.Technique, error)
}

// SCRFactory returns a factory for SCR with the given λ.
func SCRFactory(lambda float64) Factory {
	return Factory{
		Label: fmt.Sprintf("SCR%g", lambda),
		New: func(eng core.Engine) (core.Technique, error) {
			return core.New(eng, core.WithLambda(lambda), core.WithViolationDetection(0.01))
		},
	}
}

// SCRConfigFactory returns a factory for SCR built with explicit options.
func SCRConfigFactory(label string, opts ...core.Option) Factory {
	return Factory{
		Label: label,
		New: func(eng core.Engine) (core.Technique, error) {
			return core.New(eng, opts...)
		},
	}
}

// PCMFactory returns a factory for PCM with the given λ.
func PCMFactory(lambda float64) Factory {
	return Factory{
		Label: fmt.Sprintf("PCM%g", lambda),
		New: func(eng core.Engine) (core.Technique, error) {
			return baselines.NewPCM(eng, lambda)
		},
	}
}

// StandardFactories returns the Table 2 technique index: OptOnce, PCMλ,
// Ellipse(0.90), Density(0.1, 0.5), Ranges(0.01) and SCRλ.
func StandardFactories(lambda float64) []Factory {
	return []Factory{
		{Label: "OptOnce", New: func(eng core.Engine) (core.Technique, error) {
			return baselines.NewOptOnce(eng), nil
		}},
		PCMFactory(lambda),
		{Label: "Ellipse", New: func(eng core.Engine) (core.Technique, error) {
			return baselines.NewEllipse(eng, 0.90)
		}},
		{Label: "Density", New: func(eng core.Engine) (core.Technique, error) {
			return baselines.NewDensity(eng, 0.1, 0.5, 3)
		}},
		{Label: "Ranges", New: func(eng core.Engine) (core.Technique, error) {
			return baselines.NewRanges(eng, 0.01)
		}},
		SCRFactory(lambda),
	}
}

// RunTechnique runs a fresh instance of the factory's technique over every
// sequence, returning one harness result per sequence.
func (r *Runner) RunTechnique(f Factory, seqs []*SeqCtx, opts harness.Options) ([]*harness.Result, error) {
	workers := r.cfg.Parallel
	if workers <= 1 {
		results := make([]*harness.Result, 0, len(seqs))
		for _, sc := range seqs {
			tech, err := f.New(sc.Eng)
			if err != nil {
				return nil, err
			}
			res, err := harness.Run(context.Background(), sc.Eng, tech, sc.Seq, opts)
			if err != nil {
				return nil, err
			}
			res.Technique = f.Label
			results = append(results, res)
		}
		return results, nil
	}
	// Parallel: one fresh technique per sequence, results kept in sequence
	// order so reports stay deterministic.
	results := make([]*harness.Result, len(seqs))
	errs := make([]error, len(seqs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, sc := range seqs {
		wg.Add(1)
		go func(i int, sc *SeqCtx) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tech, err := f.New(sc.Eng)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := harness.Run(context.Background(), sc.Eng, tech, sc.Seq, opts)
			if err != nil {
				errs[i] = err
				return
			}
			res.Technique = f.Label
			results[i] = res
		}(i, sc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// printf writes to the configured output, if any.
func (r *Runner) printf(format string, args ...interface{}) {
	if r.cfg.Out != nil {
		fmt.Fprintf(r.cfg.Out, format, args...)
	}
}

// sortByTC orders results by ascending TotalCostRatio, matching the x-axis
// of Figures 6 and 7.
func sortByTC(rs []*harness.Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].TotalCostRatio < rs[j].TotalCostRatio })
}
