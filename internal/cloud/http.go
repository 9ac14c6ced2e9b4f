package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Server is the HTTP façade over a Metamanager: the shape the envisioned
// cloud-native Magellan ecosystem (Figure 6) exposes its microservices in.
// The API is versioned under /v1:
//
//	GET  /v1/services      — the service catalog (Table 4)
//	POST /v1/jobs          — submit a workflow DAG and block for its result
//	GET  /v1/healthz       — liveness plus per-engine queue/worker state
//	GET  /v1/metrics       — Prometheus text exposition of the obs registry
//	GET  /v1/corpus        — serving corpora and their stats (WithCorpora)
//	POST /v1/corpus/add    — add/update records in a serving corpus
//	POST /v1/corpus/delete — delete records from a serving corpus
//	POST /v1/match         — match one record against a serving corpus
//	GET  /debug/pprof/*    — the standard Go profiler endpoints (unversioned)
//
// Nothing else is routed: an unversioned path (/healthz, /jobs, ...) is a
// plain 404.
//
// Interactive labeling cannot ride a synchronous HTTP call, so job
// payloads carry the gold matches ("gold": [["a1","b1"], ...]) from which
// a simulated labeler is built — the same substitution the rest of the
// reproduction uses for humans.
//
// Request-level failures return a structured JSON error envelope:
//
//	{"error": {"code": "bad_json", "message": "...", "detail": "..."}}
//
// with codes bad_json (400), invalid_dag (400), payload_too_large (413),
// unknown_corpus (404), conflict (409), overloaded (429), and
// encode_failed (500); detail is optional operator-facing context. A job
// that executed but failed returns 422 with the per-step results.
type Server struct {
	mm       *Metamanager
	registry *obs.Registry
	corpora  *serve.Registry
	timeout  time.Duration
	maxBody  int64
}

// ServerOption configures a Server; see WithRequestTimeout,
// WithMaxBodySize, and WithMetrics.
type ServerOption func(*Server)

// WithRequestTimeout bounds each job submission: the request context is
// cancelled after d, which stops the remaining DAG steps. 0 (the default)
// means no server-imposed deadline — jobs still stop if the client
// disconnects.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.timeout = d }
}

// WithMaxBodySize caps every POST payload in bytes; larger requests
// get a 413. The default is 8 MiB.
func WithMaxBodySize(n int64) ServerOption {
	return func(s *Server) { s.maxBody = n }
}

// WithCorpora attaches a serving-corpus registry, enabling the /v1/corpus
// and /v1/match routes. Without it those routes answer 404 unknown_corpus.
func WithCorpora(reg *serve.Registry) ServerOption {
	return func(s *Server) { s.corpora = reg }
}

// WithMetrics replaces the server's own registry, so the process can share
// one registry between the server, the metamanager, and anything else that
// records. /v1/metrics renders whatever registry the server holds.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.registry = reg }
}

// NewServer wraps a metamanager. By default the server owns a fresh
// metrics registry with the standard metric families pre-declared; pass
// WithMetrics to share one with the metamanager (NewMetamanager takes its
// recorder via EngineConfig.Metrics).
func NewServer(mm *Metamanager, opts ...ServerOption) *Server {
	s := &Server{mm: mm, maxBody: 8 << 20}
	for _, o := range opts {
		o(s)
	}
	if s.registry == nil {
		s.registry = obs.NewRegistry()
	}
	obs.DescribeStandard(s.registry)
	return s
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/services", s.handleServices)
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/corpus", s.handleCorpusList)
	mux.HandleFunc("POST /v1/corpus/add", s.handleCorpusAdd)
	mux.HandleFunc("POST /v1/corpus/delete", s.handleCorpusDelete)
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthResponse is the GET /v1/healthz reply.
type healthResponse struct {
	Status       string        `json:"status"`
	Engines      []EngineState `json:"engines"`
	JobsInFlight int           `json:"jobs_in_flight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:       "ok",
		Engines:      s.mm.EngineStates(),
		JobsInFlight: s.mm.JobsInFlight(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//emlint:allow errdrop -- a mid-response write failure means the scraper hung up; there is no channel left to report on
	_ = s.registry.WritePrometheus(w)
}

// serviceInfo is the JSON form of one catalog entry.
type serviceInfo struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Composite bool   `json:"composite"`
	Doc       string `json:"doc"`
}

func (s *Server) handleServices(w http.ResponseWriter, r *http.Request) {
	var out []serviceInfo
	for _, svc := range s.mm.Registry().List() {
		out = append(out, serviceInfo{
			Name: svc.Name, Kind: svc.Kind.String(), Composite: svc.Composite, Doc: svc.Doc,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// jobRequest is the POST /v1/jobs payload.
type jobRequest struct {
	Name  string      `json:"name"`
	Seed  int64       `json:"seed"`
	Gold  [][2]string `json:"gold"`
	Noise float64     `json:"labeler_error"`
	Steps []Step      `json:"steps"`
}

// stepResponse is one settled step of a jobResponse.
type stepResponse struct {
	Step    string `json:"step"`
	Service string `json:"service"`
	Output  string `json:"output,omitempty"`
	Error   string `json:"error,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
}

// jobResponse is the POST /v1/jobs reply.
type jobResponse struct {
	Name      string         `json:"name"`
	Error     string         `json:"error,omitempty"`
	Steps     []stepResponse `json:"steps"`
	Questions int            `json:"questions"`
	CostUSD   float64        `json:"cost_usd"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	var req jobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	gold := label.NewGold(req.Gold)
	var lab label.Labeler
	if req.Noise > 0 {
		lab = label.NewNoisyUser(gold, req.Noise, req.Seed)
	} else {
		lab = label.NewOracle(gold)
	}
	jctx := NewJobContext(lab, req.Seed)
	jctx.Metrics = s.registry
	job := &Job{Name: req.Name, Ctx: jctx, Steps: req.Steps}
	// A malformed DAG is a client error, answered before anything runs, not
	// a job failure.
	d, err := resolve(job)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidDAG, err.Error(), "")
		return
	}
	res := s.mm.run(ctx, d)

	resp := jobResponse{Name: res.Name}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	for _, sr := range res.Steps {
		entry := stepResponse{Step: sr.Step, Service: sr.Service, Skipped: sr.Skipped}
		if sr.Output != nil {
			entry.Output = fmt.Sprint(sr.Output)
		}
		if sr.Err != nil {
			entry.Error = sr.Err.Error()
		}
		resp.Steps = append(resp.Steps, entry)
	}
	st := lab.Stats()
	resp.Questions = st.Questions
	resp.CostUSD = st.CostUSD
	status := http.StatusOK
	if res.Err != nil {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

// errorBody is the structured request-level error envelope: a stable
// machine-readable code, a human-readable message, and optional
// operator-facing detail.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

func writeError(w http.ResponseWriter, status int, code, message, detail string) {
	writeJSON(w, status, map[string]errorBody{"error": {Code: code, Message: message, Detail: detail}})
}

// writeJSON encodes v before touching the response so an encoding failure
// can still become a clean 500 instead of a broken 200 body, and sets
// Content-Type ahead of WriteHeader (headers are frozen after it).
//
//emlint:allow errdrop -- body writes after WriteHeader can only fail when the client hung up; nothing can be reported to it anymore
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`, codeEncodeFailed, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
	w.Write([]byte("\n"))
}
