package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
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

// adminState holds the optional system handle and the epoch log.
type adminState struct {
	mu  sync.Mutex
	sys *pqo.System
	log []*epochRecord
	// installMu serializes whole generation installs (admin- and
	// cluster-initiated): the read-current-epoch / build-store / advance
	// sequence must be atomic so concurrent installs cannot interleave
	// and the cluster handler's monotonicity check stays sound. It is
	// never held while mu is taken for log access the other way around,
	// and no RPC or engine call runs under mu.
	installMu sync.Mutex
}

// epochRecord is one entry of the epoch log.
type epochRecord struct {
	id      uint64
	reason  string   // "initial", "delta", "resample", "cluster-delta" or "cluster-resample"
	columns []string // refreshed columns, delta advances only
	at      time.Time
	// revals holds the per-template revalidation runs this advance
	// started; their counters freeze once the run finishes or a later
	// advance supersedes it.
	revals map[string]*pqo.Revalidation
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

// appendEpochRecord appends one entry to the epoch log.
func (s *Server) appendEpochRecord(rec *epochRecord) {
	s.admin.mu.Lock()
	defer s.admin.mu.Unlock()
	s.admin.log = append(s.admin.log, rec)
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
		next, err = sys.Stats.Apply(deltas)
		if err != nil {
			return nil, http.StatusBadRequest, "ErrBadRequest", err
		}
		for _, d := range deltas {
			columns = append(columns, d.Table+"."+d.Column)
		}
		sort.Strings(columns)
	} else {
		reason = reasonPrefix + "resample"
		next, err = sys.ResampleStats(*resampleSeed)
		if err != nil {
			return nil, http.StatusInternalServerError, "", err
		}
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
	revals, err := s.dir.Revalidate(detached, workers)
	if err != nil {
		return nil, http.StatusInternalServerError, "", err
	}
	s.logf("revalidation started for %d of %d templates", len(revals), s.dir.Len())

	s.appendEpochRecord(&epochRecord{
		id: ep.ID, reason: reason, columns: columns, at: time.Now(), revals: revals,
	})
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
	s.admin.mu.Unlock()

	out := make([]EpochInfo, 0, len(records))
	for _, rec := range records {
		info := EpochInfo{
			Epoch: rec.id, Reason: rec.reason, Columns: rec.columns,
			AdvancedAt: rec.at, Current: rec.id == cur,
		}
		if len(rec.revals) > 0 {
			info.Revalidation = make(map[string]pqo.RevalidationProgress, len(rec.revals))
			for name, run := range rec.revals {
				info.Revalidation[name] = run.Progress()
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
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
