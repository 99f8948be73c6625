package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/pqo"
)

// This file is the versioned statistics-administration surface
// (docs/STATS.md): POST /v1/admin/stats installs a new statistics
// generation — from per-column histogram deltas or a full resample —
// advances the epoch, and kicks off background revalidation of every
// registered plan cache; GET /v1/admin/epochs lists every generation this
// process has served with its revalidation progress. Serving never
// pauses: nothing is flushed, and plan-cache anchors revalidate lazily
// while the read path keeps answering from the generation each entry was
// derived under.

// epochLogWindow is how many epoch records the log keeps: the newest
// ones, about 150 KB at 31 templates, however many advances the process
// serves. Every advance starts a revalidation run for every registered
// template with an epoch lifecycle, so the newest record always holds
// each such template's latest target and run.
const epochLogWindow = 256

// epochsDroppedHeader is the /v1/admin/epochs response header that states
// how many records fell out of the window.
const epochsDroppedHeader = "Pqo-Epochs-Dropped"

// adminState holds the optional system handle and the epoch log.
type adminState struct {
	mu  sync.Mutex
	sys *pqo.System
	// log holds one record per generation, the newest epochLogWindow of
	// them; records are immutable, and compaction replaces a record
	// rather than changing it, so readers may use the pointers they
	// copied out after releasing mu. Every record before log[live] is
	// compact.
	log  []*epochRecord
	live int
	// dropped counts the records that fell out of the window.
	dropped int
	// installMu serializes whole generation installs (admin- and
	// cluster-initiated): the read-current-epoch / build-store / advance
	// sequence must be atomic so concurrent installs cannot interleave
	// and the cluster handler's monotonicity check stays sound. It is
	// never held while mu is taken for log access the other way around,
	// and no RPC or engine call runs under mu.
	installMu sync.Mutex
}

// epochRecord is one entry of the epoch log. While any of its
// revalidation runs is still working it holds their handles; once all
// have finished, compaction swaps it for a record that keeps only what
// /v1/admin/epochs prints, so an advance leaves behind memory in
// proportion to what it changed rather than to the template count.
type epochRecord struct {
	id      uint64
	reason  string   // "initial", "delta", "resample", "cluster-delta" or "cluster-resample"
	columns []string // refreshed columns, delta advances only
	at      time.Time
	// names lists, ascending, the templates this advance started
	// revalidation runs for; consecutive records share one slice while
	// the set is unchanged.
	names []string
	// runs holds the runs, parallel to names, until the record compacts.
	runs []*pqo.Revalidation
	// targets (parallel to names) and worked are the compact form: each
	// run's target epoch, and the final progress of every run that did
	// more than find nothing lagging.
	targets []uint64
	worked  []workedRun
}

// workedRun is a compacted run's final progress; i indexes its record's
// names.
type workedRun struct {
	i int
	p pqo.RevalidationProgress
}

// idleProgress is the final progress of a run that found nothing to
// revalidate.
func idleProgress(target uint64) pqo.RevalidationProgress {
	return pqo.RevalidationProgress{TargetEpoch: target, Finished: true}
}

// progress returns the revalidation progress of the record's i-th run.
func (rec *epochRecord) progress(i int) pqo.RevalidationProgress {
	if rec.runs != nil {
		return rec.runs[i].Progress()
	}
	for _, w := range rec.worked {
		if w.i == i {
			return w.p
		}
	}
	return idleProgress(rec.targets[i])
}

// compacted returns rec's compact form, or nil while any of its runs is
// still working. A finished run's progress is final, so the compact form
// reports exactly what the handles would.
func (rec *epochRecord) compacted() *epochRecord {
	for _, run := range rec.runs {
		select {
		case <-run.Done():
		default:
			return nil
		}
	}
	c := *rec
	c.runs = nil
	c.targets = make([]uint64, len(rec.runs))
	for i, run := range rec.runs {
		p := run.Progress()
		c.targets[i] = p.TargetEpoch
		if p != idleProgress(p.TargetEpoch) {
			c.worked = append(c.worked, workedRun{i: i, p: p})
		}
	}
	return &c
}

// SetSystem attaches the database system whose statistics the admin
// endpoints manage. Every TemplateEngine registered on this server must
// share sys's optimizer (the normal System.EngineFor arrangement), so one
// epoch advance is observed by all templates at once. Without a system
// the admin endpoints respond 409.
func (s *Server) SetSystem(sys *pqo.System) {
	s.admin.mu.Lock()
	defer s.admin.mu.Unlock()
	s.admin.sys = sys
	s.admin.log = append(s.admin.log, &epochRecord{
		id: sys.Opt.Epoch().ID, reason: "initial", at: time.Now(),
	})
}

// appendEpochRecord appends the record of an advance that started the
// given runs, first compacting every record whose runs have all
// finished.
func (s *Server) appendEpochRecord(rec *epochRecord, revals map[string]*pqo.Revalidation) {
	s.admin.mu.Lock()
	defer s.admin.mu.Unlock()
	s.compactEpochLogLocked()
	if len(revals) > 0 {
		rec.names = make([]string, 0, len(revals))
		for name := range revals {
			rec.names = append(rec.names, name)
		}
		sort.Strings(rec.names)
		if n := len(s.admin.log); n > 0 && slices.Equal(s.admin.log[n-1].names, rec.names) {
			rec.names = s.admin.log[n-1].names
		}
		rec.runs = make([]*pqo.Revalidation, len(rec.names))
		for i, name := range rec.names {
			rec.runs[i] = revals[name]
		}
	}
	s.admin.log = append(s.admin.log, rec)
	if n := len(s.admin.log); n > epochLogWindow {
		// Shift rather than reslice, so the backing array stays at the
		// window's size.
		log := s.admin.log
		copy(log, log[1:])
		log[n-1] = nil
		s.admin.log = log[:n-1]
		s.admin.live = max(s.admin.live-1, 0)
		s.admin.dropped++
	}
}

// compactEpochLogLocked replaces every record whose runs have all
// finished with its compact form. Callers hold s.admin.mu.
func (s *Server) compactEpochLogLocked() {
	log := s.admin.log
	for i := s.admin.live; i < len(log); i++ {
		if log[i].runs == nil {
			continue
		}
		if c := log[i].compacted(); c != nil {
			log[i] = c
		}
	}
	for s.admin.live < len(log) && log[s.admin.live].runs == nil {
		s.admin.live++
	}
}

// system returns the attached system, or nil.
func (s *Server) system() *pqo.System {
	s.admin.mu.Lock()
	defer s.admin.mu.Unlock()
	return s.admin.sys
}

// AdminStatsRequest is the body of POST /v1/admin/stats. Exactly one of
// Deltas (a partial refresh: each delta replaces one column's histogram
// from a fresh value sample) or ResampleSeed (a full statistics swap,
// rebuilt from synthetic data with the given seed) must be set. Workers
// sizes the per-template revalidation pool; <= 0 selects the default.
type AdminStatsRequest struct {
	Deltas       []pqo.HistogramDelta `json:"deltas,omitempty"`
	ResampleSeed *int64               `json:"resampleSeed,omitempty"`
	Workers      int                  `json:"workers,omitempty"`
}

// AdminStatsResponse is the body of a successful POST /v1/admin/stats.
type AdminStatsResponse struct {
	// Epoch is the id of the newly installed statistics generation.
	Epoch uint64 `json:"epoch"`
	// Revalidation maps template name to its background run's progress at
	// response time; poll /v1/admin/epochs for completion.
	Revalidation map[string]pqo.RevalidationProgress `json:"revalidation"`
}

func (s *Server) handleAdminStats(w http.ResponseWriter, r *http.Request) {
	var req AdminStatsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody)).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if (len(req.Deltas) == 0) == (req.ResampleSeed == nil) {
		writeError(w, http.StatusBadRequest, "ErrBadRequest",
			errors.New("exactly one of deltas or resampleSeed must be set"))
		return
	}
	sys := s.system()
	if sys == nil {
		writeError(w, http.StatusConflict, "ErrNoSystem",
			errors.New("statistics administration requires an attached system (Server.SetSystem)"))
		return
	}

	out, code, sentinel, err := func() (*advanceOutcome, int, string, error) {
		s.admin.installMu.Lock()
		defer s.admin.installMu.Unlock()
		return s.advanceGeneration(r.Context(), sys, "", req.Deltas, req.ResampleSeed, req.Workers)
	}()
	if err != nil {
		writeError(w, code, sentinel, err)
		return
	}

	resp := AdminStatsResponse{Epoch: out.epoch, Revalidation: make(map[string]pqo.RevalidationProgress, len(out.revals))}
	for name, run := range out.revals {
		resp.Revalidation[name] = run.Progress()
	}
	writeJSON(w, resp)
}

// advanceOutcome reports one completed generation install.
type advanceOutcome struct {
	epoch  uint64
	revals map[string]*pqo.Revalidation
}

// advanceGeneration installs one statistics generation — from per-column
// deltas or a full resample — advances the epoch, kicks off background
// revalidation of every registered plan cache, and appends the epoch
// record. It is the shared core of the admin (/v1/admin/stats) and
// cluster (/v1/cluster/epoch) install paths; reasonPrefix distinguishes
// them in the epoch log ("" or "cluster-"). On failure it returns the
// HTTP status and sentinel the caller should respond with.
//
// The caller must hold s.admin.installMu so concurrent installs cannot
// interleave between reading the current store and advancing the epoch.
func (s *Server) advanceGeneration(ctx context.Context, sys *pqo.System, reasonPrefix string, deltas []pqo.HistogramDelta, resampleSeed *int64, workers int) (*advanceOutcome, int, string, error) {
	var (
		next    *pqo.StatsStore
		reason  string
		columns []string
		err     error
	)
	if len(deltas) > 0 {
		reason = reasonPrefix + "delta"
		next, err = sys.Opt.StatsStore().Apply(deltas)
		if err != nil {
			return nil, http.StatusBadRequest, "ErrBadRequest", err
		}
		for _, d := range deltas {
			columns = append(columns, d.Table+"."+d.Column)
		}
		sort.Strings(columns)
	} else {
		reason = reasonPrefix + "resample"
		next = sys.ResampleStats(*resampleSeed)
	}

	ep := sys.AdvanceEpoch(next)
	s.logf("statistics epoch %d installed (%s)", ep.ID, reason)

	// Revalidation outlives the install request: detach from its deadline
	// and cancellation while keeping its values (trace metadata etc.).
	// The directory fans every template's lag into one shared worker pool,
	// interleaved usage-weighted across domains (hottest lag revalidates
	// first) and cheapest-first within each; templates over engines with
	// no epoch lifecycle are skipped inside.
	detached := context.WithoutCancel(ctx)
	revals := s.dir.Revalidate(detached, workers)
	s.logf("revalidation started for %d of %d templates", len(revals), s.dir.Len())

	s.appendEpochRecord(&epochRecord{id: ep.ID, reason: reason, columns: columns, at: time.Now()}, revals)
	return &advanceOutcome{epoch: ep.ID, revals: revals}, 0, "", nil
}

// EpochInfo is one row of GET /v1/admin/epochs.
type EpochInfo struct {
	Epoch   uint64   `json:"epoch"`
	Reason  string   `json:"reason"`
	Columns []string `json:"columns,omitempty"`
	// AdvancedAt is when this process installed the generation (the
	// initial record carries the attach time).
	AdvancedAt time.Time `json:"advancedAt"`
	// Current marks the generation currently serving.
	Current bool `json:"current"`
	// Revalidation is the per-template revalidation progress for the
	// advance that installed this epoch (absent for the initial record).
	Revalidation map[string]pqo.RevalidationProgress `json:"revalidation,omitempty"`
}

func (s *Server) handleAdminEpochs(w http.ResponseWriter, _ *http.Request) {
	sys := s.system()
	if sys == nil {
		writeError(w, http.StatusConflict, "ErrNoSystem",
			errors.New("statistics administration requires an attached system (Server.SetSystem)"))
		return
	}
	cur := sys.Opt.Epoch().ID
	s.admin.mu.Lock()
	records := make([]*epochRecord, len(s.admin.log))
	copy(records, s.admin.log)
	dropped := s.admin.dropped
	s.admin.mu.Unlock()

	out := make([]EpochInfo, 0, len(records))
	for _, rec := range records {
		info := EpochInfo{
			Epoch: rec.id, Reason: rec.reason, Columns: rec.columns,
			AdvancedAt: rec.at, Current: rec.id == cur,
		}
		if len(rec.names) > 0 {
			info.Revalidation = make(map[string]pqo.RevalidationProgress, len(rec.names))
			for i, name := range rec.names {
				info.Revalidation[name] = rec.progress(i)
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	w.Header().Set(epochsDroppedHeader, strconv.Itoa(dropped))
	writeJSON(w, out)
}

// lastAdvance returns the time of the most recent epoch advance (zero
// when none happened) for the epoch-lag gauge.
func (s *Server) lastAdvance() time.Time {
	s.admin.mu.Lock()
	defer s.admin.mu.Unlock()
	if len(s.admin.log) == 0 {
		return time.Time{}
	}
	return s.admin.log[len(s.admin.log)-1].at
}

// epochLagSeconds is the pqo_epoch_lag_seconds gauge: how long the oldest
// still-lagging plan-cache anchor has been behind the current epoch,
// approximated as time since the last advance while any template reports
// lagging instances — 0 once revalidation has drained. It reads the
// scrape's per-template Stats instead of taking its own.
func (s *Server) epochLagSeconds(stats []statsSnapshot) float64 {
	last := s.lastAdvance()
	if last.IsZero() {
		return 0
	}
	for i := range stats {
		if stats[i].LaggingInstances > 0 {
			return time.Since(last).Seconds()
		}
	}
	return 0
}
