package server

import (
	"fmt"
	"net/http"
	"strings"
)

// APIVersion is the served API version prefix. Every endpoint lives under
// it, so clients bind to a stable, evolvable surface; any other path
// answers 404 ErrNotFound.
const APIVersion = "/v1"

// route is one row of the server's route registry. The registry is the
// single source of truth for the HTTP surface: Handler builds the mux
// from it (including method enforcement) and the
// OpenAPI document is generated from it, so the spec cannot drift from
// the routes actually served.
type route struct {
	// path is the versioned pattern, e.g. "/v1/plan".
	path string
	// method is the single allowed method; GET routes also accept HEAD.
	method  string
	handler http.HandlerFunc
	// summary and description feed the generated OpenAPI document.
	summary     string
	description string
}

// routes returns the registry. Order is the order paths appear in the
// OpenAPI document.
func (s *Server) routes() []route {
	return []route{
		{
			path: APIVersion + "/plan", method: http.MethodPost,
			handler: s.handlePlan,
			summary: "Decide a plan for one query instance",
			description: "Runs the SCR checks for the given template and selectivity vector, " +
				"returning the chosen plan, its provenance, the statistics epoch the decision's " +
				"λ guarantee is stated against, and the estimated cost.",
		},
		{
			path: APIVersion + "/templates", method: http.MethodGet,
			handler:     s.handleTemplates,
			summary:     "List registered templates",
			description: "Registered query templates with SQL and dimensionality, sorted by name.",
		},
		{
			path: APIVersion + "/stats", method: http.MethodGet,
			handler:     s.handleStats,
			summary:     "Per-template technique counters",
			description: "The paper's metrics plus concurrency, resilience and epoch counters, sorted by template name.",
		},
		{
			path: APIVersion + "/metrics", method: http.MethodGet,
			handler:     s.handleMetrics,
			summary:     "Prometheus metrics",
			description: "Counters, gauges and latency histograms in Prometheus text exposition format.",
		},
		{
			path: APIVersion + "/snapshot", method: http.MethodPost,
			handler:     s.handleSnapshot,
			summary:     "Persist plan caches",
			description: "Exports every registered plan cache to the configured snapshot directory.",
		},
		{
			path: APIVersion + "/healthz", method: http.MethodGet,
			handler:     s.handleHealthz,
			summary:     "Liveness and readiness",
			description: "Three-state health: serving, degraded (shedding or open breakers), or unhealthy (draining).",
		},
		{
			path: APIVersion + "/admin/stats", method: http.MethodPost,
			handler: s.handleAdminStats,
			summary: "Advance the statistics epoch",
			description: "Installs a new statistics generation — from per-column histogram deltas or a full " +
				"resample — advances the epoch, and starts background revalidation of every plan cache. " +
				"Serving continues uninterrupted; no cache is flushed.",
		},
		{
			path: APIVersion + "/admin/epochs", method: http.MethodGet,
			handler:     s.handleAdminEpochs,
			summary:     "List statistics epochs",
			description: "Every epoch this process has served, with its origin and per-template revalidation progress.",
		},
		{
			path: APIVersion + "/cluster/epoch", method: http.MethodPost,
			handler: s.handleClusterEpoch,
			summary: "Install a coordinator-pushed statistics generation",
			description: "Idempotent member-side install for multi-node epoch propagation: epoch N+1 installs " +
				"when the node is at N, earlier epochs are acknowledged as duplicates, and later epochs are " +
				"refused with ErrEpochGap (the coordinator replays the missed generations in order).",
		},
		{
			path: APIVersion + "/cluster/status", method: http.MethodGet,
			handler: s.handleClusterStatus,
			summary: "Node epoch and skew status",
			description: "The node's installed generation, the highest cluster generation it has observed, the " +
				"resulting skew, and revalidation lag — the roll-up the epoch coordinator and load balancers poll.",
		},
		{
			path: APIVersion + "/openapi.json", method: http.MethodGet,
			handler:     s.handleOpenAPI,
			summary:     "This API's OpenAPI document",
			description: "Generated from the live route registry, so it always matches the served surface.",
		},
	}
}

// Handler returns the server's route table; usable directly with
// httptest or any http.Server. Unknown paths get the JSON error
// envelope with 404, disallowed methods get it with 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		rt := rt
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) {
			// Every coordinator RPC carries the cluster-epoch stamp; feeding
			// it to the plan caches here means even a node that cannot
			// install (mid-partition, mid-replay) learns it is behind.
			s.observeClusterHeader(r)
			if !methodAllowed(r.Method, rt.method) {
				w.Header().Set("Allow", rt.method)
				writeError(w, http.StatusMethodNotAllowed, "ErrMethodNotAllowed",
					fmt.Errorf("%s requires %s", rt.path, rt.method))
				return
			}
			rt.handler(w, r)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "ErrNotFound",
			fmt.Errorf("no route %s (the API lives under %s/)", r.URL.Path, APIVersion))
	})
	return mux
}

// methodAllowed reports whether got may invoke a route declared with
// want; HEAD rides along with GET per RFC 9110.
func methodAllowed(got, want string) bool {
	return got == want || (want == http.MethodGet && got == http.MethodHead)
}

// openAPIDoc is the minimal OpenAPI 3 document shape the server emits.
type openAPIDoc struct {
	OpenAPI string                 `json:"openapi"`
	Info    openAPIInfo            `json:"info"`
	Paths   map[string]openAPIPath `json:"paths"`
}

type openAPIInfo struct {
	Title       string `json:"title"`
	Description string `json:"description"`
	Version     string `json:"version"`
}

type openAPIPath map[string]openAPIOp

type openAPIOp struct {
	Summary     string                     `json:"summary"`
	Description string                     `json:"description,omitempty"`
	Responses   map[string]openAPIResponse `json:"responses"`
}

type openAPIResponse struct {
	Description string `json:"description"`
}

// openAPI generates the spec from the route registry.
func (s *Server) openAPI() openAPIDoc {
	doc := openAPIDoc{
		OpenAPI: "3.0.3",
		Info: openAPIInfo{
			Title: "pqo plan-cache service",
			Description: "Online parametric query optimization with λ-optimality guarantees: " +
				"plan decisions, statistics-epoch administration, metrics and snapshots.",
			Version: strings.TrimPrefix(APIVersion, "/"),
		},
		Paths: make(map[string]openAPIPath),
	}
	for _, rt := range s.routes() {
		op := openAPIOp{
			Summary:     rt.summary,
			Description: rt.description,
			Responses: map[string]openAPIResponse{
				"200": {Description: "Success."},
				"default": {Description: `Error envelope {"error","sentinel"}; the sentinel is a ` +
					"stable identifier clients can branch on."},
			},
		}
		if doc.Paths[rt.path] == nil {
			doc.Paths[rt.path] = make(openAPIPath)
		}
		doc.Paths[rt.path][strings.ToLower(rt.method)] = op
	}
	return doc
}

func (s *Server) handleOpenAPI(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.openAPI())
}
