package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/pqo"
)

// This file is the member side of multi-node epoch propagation
// (docs/ROBUSTNESS.md): POST /v1/cluster/epoch is the coordinator-facing
// install endpoint — idempotent, monotonic, duplicate-delivery tolerant —
// and GET /v1/cluster/status is the roll-up a coordinator (or load
// balancer) polls to see how far this node's statistics generation and
// revalidation lag the cluster. The coordinator stamps every RPC with the
// Pqo-Cluster-Epoch header; the server feeds it to each plan cache
// (SCR.ObserveClusterEpoch) so even a node that cannot install — mid-
// partition, mid-replay — knows when it is behind quorum and flags its
// decisions instead of silently mixing generations.

// ClusterEpochHeader carries the highest generation the coordinator has
// assigned; sent on every coordinator RPC, observed on every route.
const ClusterEpochHeader = "Pqo-Cluster-Epoch"

// NodeEpochHeader reports this node's installed generation on cluster
// responses, so a coordinator seeing ErrEpochGap knows where to start the
// catch-up replay without a second round trip.
const NodeEpochHeader = "Pqo-Node-Epoch"

// ClusterEpochRequest is the body of POST /v1/cluster/epoch: install
// generation Epoch from exactly one of Deltas or ResampleSeed. Epoch must
// be exactly one past the node's current generation; earlier epochs are
// acknowledged as duplicates (delivering a push twice must be harmless),
// later ones are refused with ErrEpochGap so the coordinator replays the
// missed generations in order.
type ClusterEpochRequest struct {
	Epoch        uint64               `json:"epoch"`
	Deltas       []pqo.HistogramDelta `json:"deltas,omitempty"`
	ResampleSeed *int64               `json:"resampleSeed,omitempty"`
	Workers      int                  `json:"workers,omitempty"`
}

// ClusterEpochResponse is the body of a successful POST /v1/cluster/epoch.
type ClusterEpochResponse struct {
	// Epoch is the node's installed generation after handling the push.
	Epoch uint64 `json:"epoch"`
	// Installed reports that this delivery performed the install;
	// Duplicate that the generation was already in place (idempotent ack).
	Installed bool `json:"installed,omitempty"`
	Duplicate bool `json:"duplicate,omitempty"`
	// Revalidation is the per-template background revalidation progress at
	// response time (installs only).
	Revalidation map[string]pqo.RevalidationProgress `json:"revalidation,omitempty"`
}

// ClusterStatusResponse is the body of GET /v1/cluster/status.
type ClusterStatusResponse struct {
	// Epoch is the node's installed statistics generation; ClusterEpoch
	// the highest cluster generation it has observed; Skew how many
	// generations it lags (0 when caught up or no coordinator has spoken).
	Epoch        uint64 `json:"epoch"`
	ClusterEpoch uint64 `json:"clusterEpoch"`
	Skew         uint64 `json:"skew"`
	// LaggingInstances counts plan-cache anchors still awaiting
	// revalidation under the node's current epoch, summed over templates.
	LaggingInstances int64 `json:"laggingInstances"`
	// SkewFlagged counts decisions served flagged DegradedEpochSkew.
	SkewFlagged int64 `json:"skewFlagged"`
	// Health is the /v1/healthz status string.
	Health    string `json:"health"`
	Templates int    `json:"templates"`
}

// observeClusterEpoch feeds a coordinator's cluster-epoch observation to
// every registered plan cache.
func (s *Server) observeClusterEpoch(id uint64) {
	if id == 0 {
		return
	}
	for _, v := range s.registered() {
		v.(*entry).scr.ObserveClusterEpoch(id)
	}
}

// observeClusterHeader picks up the Pqo-Cluster-Epoch stamp, if present.
func (s *Server) observeClusterHeader(r *http.Request) {
	if v := r.Header.Get(ClusterEpochHeader); v != "" {
		if id, err := strconv.ParseUint(v, 10, 64); err == nil {
			s.observeClusterEpoch(id)
		}
	}
}

func (s *Server) handleClusterEpoch(w http.ResponseWriter, r *http.Request) {
	var req ClusterEpochRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody)).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if req.Epoch == 0 {
		writeError(w, http.StatusBadRequest, "ErrBadRequest",
			errors.New("cluster epoch id must be >= 1"))
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
			errors.New("cluster installs require an attached system (Server.SetSystem)"))
		return
	}
	// The push itself proves the cluster has assigned generation
	// req.Epoch, whether or not this delivery installs it.
	s.observeClusterEpoch(req.Epoch)

	s.admin.installMu.Lock()
	defer s.admin.installMu.Unlock()
	cur := sys.Opt.Epoch().ID
	w.Header().Set(NodeEpochHeader, strconv.FormatUint(cur, 10))
	switch {
	case req.Epoch <= cur:
		// Duplicate delivery (a retransmit, or a retry after a lost
		// response): the generation is already installed. Acknowledge
		// without touching anything — installs must be idempotent.
		writeJSON(w, ClusterEpochResponse{Epoch: cur, Duplicate: true})
		return
	case req.Epoch > cur+1:
		writeError(w, http.StatusConflict, "ErrEpochGap",
			fmt.Errorf("node at epoch %d cannot install %d: generations %d..%d missing (replay them in order)",
				cur, req.Epoch, cur+1, req.Epoch-1))
		return
	}

	out, code, sentinel, err := s.advanceGeneration(r.Context(), sys, "cluster-", req.Deltas, req.ResampleSeed, req.Workers)
	if err != nil {
		writeError(w, code, sentinel, err)
		return
	}
	w.Header().Set(NodeEpochHeader, strconv.FormatUint(out.epoch, 10))
	resp := ClusterEpochResponse{
		Epoch:        out.epoch,
		Installed:    true,
		Revalidation: make(map[string]pqo.RevalidationProgress, len(out.revals)),
	}
	for name, run := range out.revals {
		resp.Revalidation[name] = run.Progress()
	}
	writeJSON(w, resp)
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	resp := ClusterStatusResponse{Health: s.health().Status}
	if sys := s.system(); sys != nil {
		resp.Epoch = sys.Opt.Epoch().ID
	}
	entries := s.registered()
	resp.Templates = len(entries)
	for _, v := range entries {
		st := v.(*entry).scr.Stats()
		if st.StatsEpoch > resp.Epoch {
			resp.Epoch = st.StatsEpoch
		}
		if st.ClusterEpoch > resp.ClusterEpoch {
			resp.ClusterEpoch = st.ClusterEpoch
		}
		resp.LaggingInstances += st.LaggingInstances
		resp.SkewFlagged += st.EpochSkewFlagged
	}
	if resp.ClusterEpoch > resp.Epoch {
		resp.Skew = resp.ClusterEpoch - resp.Epoch
	}
	w.Header().Set(NodeEpochHeader, strconv.FormatUint(resp.Epoch, 10))
	writeJSON(w, resp)
}
