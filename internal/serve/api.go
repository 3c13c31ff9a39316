// HTTP/JSON surface of the ingestion server (net/http only).
//
//	POST /v1/processes                     submit a process spec
//	GET  /v1/processes                     list (tenant/state filters, offset+limit pagination)
//	GET  /v1/processes/{tenant}/{id}       status of one submission
//	GET  /v1/processes/{tenant}/{id}/events  SSE status + decision-trace stream
//	POST /v1/drain                         graceful drain
//	GET  /healthz                          liveness
//	GET  /readyz                           readiness (unready during drain/overload)
//	GET  /metricz                          metrics snapshot
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/scheduler"
	"transproc/internal/spec"
)

// SubmitRequest is the POST /v1/processes body.
type SubmitRequest struct {
	// Tenant is the namespace ("default" when empty); budgets are
	// per-tenant.
	Tenant string `json:"tenant,omitempty"`
	// Key is the idempotency key: retries with the same (tenant, key)
	// return the original submission instead of a duplicate.
	Key string `json:"key,omitempty"`
	// Proc is the declarative process (services must exist on the
	// server's federation).
	Proc spec.ProcessSpec `json:"proc"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped,omitempty"`
	Status  string `json:"status"` // status URL
}

type apiError struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/processes", s.guard(s.handleSubmit))
	mux.HandleFunc("GET /v1/processes", s.guard(s.handleList))
	mux.HandleFunc("GET /v1/processes/{tenant}/{id}", s.guard(s.handleStatus))
	mux.HandleFunc("GET /v1/processes/{tenant}/{id}/events", s.guard(s.handleEvents))
	mux.HandleFunc("POST /v1/drain", s.guard(s.handleDrain))
	mux.HandleFunc("GET /healthz", s.guard(s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.handleReadyz) // answers "crashed" itself
	mux.HandleFunc("GET /metricz", s.guard(s.handleMetricz))
	return mux
}

// guard converts an escaped crash sentinel into server death — the
// injected kill -9 may fire inside a request handler, and the client
// must simply see the connection die.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer scheduler.OnInjectedCrash(s.crashNow)
		if s.crashed.Load() {
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server crashed"})
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func shed(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, apiError{Error: msg, RetryAfter: secs})
}

// maxSubmitBytes caps a POST /v1/processes body. Its journal entry
// re-encodes the same spec, so the cap keeps every entry far below the
// 16 MiB frame limit of the journal's wal.FrameFile: an entry over that
// limit would fail the force-log, which the server treats as fatal.
const maxSubmitBytes = 1 << 20

func validName(sv string) bool {
	if sv == "" {
		return false
	}
	return !strings.ContainsAny(sv, "+/\x00 \t\n")
}

// handleSubmit is the admission path: validate → dedupe → backpressure
// → tenant budget → journal force-log → enqueue → ack. The serve:admit
// point fires after the journal append (the submission is durable but
// not yet enqueued); serve:ack after the enqueue (the submission will
// run but the client never hears so).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	admitLatency := func() {
		s.reg.Observe(metrics.HistServeAdmit, time.Since(start).Microseconds())
	}
	s.reg.Inc(metrics.ServeSubmitted)
	if s.draining.Load() || s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: fmt.Sprintf("request body exceeds %d bytes", maxSubmitBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if !validName(req.Tenant) || !validName(req.Proc.ID) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "tenant and proc.id must be non-empty and free of '+', '/' and whitespace"})
		return
	}
	origin := req.Tenant + "/" + req.Proc.ID

	s.mu.Lock()
	if req.Key != "" {
		if id, ok := s.byKey[[2]string{req.Tenant, req.Key}]; ok {
			sub := s.subs[id]
			st := sub.state
			s.mu.Unlock()
			s.reg.Inc(metrics.ServeDeduped)
			admitLatency()
			writeJSON(w, http.StatusOK, SubmitResponse{ID: id, State: st, Deduped: true, Status: statusURL(id)})
			return
		}
	}
	if _, dup := s.subs[origin]; dup {
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("process %s already submitted (use an idempotency key to retry safely)", origin)})
		return
	}
	// Backpressure: shed when the admission queue (plus slots already
	// spoken for) is full, or when the in-flight window and the queue
	// are jointly saturated.
	queued := len(s.queue) + s.reserved
	outstanding := int(s.pending.Load()) + s.reserved
	s.reg.Observe(metrics.HistServeQueueDepth, int64(queued))
	if queued >= s.cfg.QueueDepth || outstanding >= s.cfg.QueueDepth+s.cfg.BatchMax {
		s.mu.Unlock()
		s.reg.Inc(metrics.ServeShedQueue)
		admitLatency()
		shed(w, s.cfg.BatchWait*time.Duration(1+queued/s.cfg.BatchMax), "admission queue full")
		return
	}
	if ok, wait := s.tn.admit(req.Tenant); !ok {
		s.mu.Unlock()
		s.reg.Inc(metrics.ServeShedTenant)
		admitLatency()
		shed(w, wait, "tenant rate budget exhausted")
		return
	}
	ps := req.Proc
	ps.ID = origin
	def, err := spec.BuildProcess(s.fed, ps)
	if err != nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	entry := &JournalEntry{ID: origin, Tenant: req.Tenant, Key: req.Key, Proc: &req.Proc}
	if err := s.jr.append(entry); err != nil {
		s.mu.Unlock()
		s.crashNow("journal:" + err.Error())
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	sub := &submission{
		id: origin, tenant: req.Tenant, key: req.Key, seq: entry.Seq,
		ps: req.Proc, runID: origin, state: stateQueued,
	}
	s.subs[origin] = sub
	s.order = append(s.order, origin)
	s.defs[origin] = def
	if req.Key != "" {
		s.byKey[[2]string{req.Tenant, req.Key}] = origin
	}
	s.reserved++
	s.mu.Unlock()

	// Durable but not yet enqueued: a crash here is the lost-admission
	// window restart recovery must close (resume from the journal).
	s.inject(PointAdmit)
	s.pending.Add(1)
	s.queue <- sub
	s.mu.Lock()
	s.reserved--
	s.mu.Unlock()
	// Enqueued but unacknowledged: a crash here leaves the client
	// uncertain — its retry with the same key must dedupe.
	s.inject(PointAck)
	s.reg.Inc(metrics.ServeAccepted)
	admitLatency()
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: origin, State: stateQueued, Status: statusURL(origin)})
}

func statusURL(origin string) string { return "/v1/processes/" + origin }

// ListResponse is the paginated GET /v1/processes body.
type ListResponse struct {
	Total      int      `json:"total"`
	Offset     int      `json:"offset"`
	NextOffset int      `json:"nextOffset,omitempty"`
	Items      []Status `json:"items"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	all := s.Statuses(q.Get("tenant"), q.Get("state"))
	offset, _ := strconv.Atoi(q.Get("offset"))
	limit, _ := strconv.Atoi(q.Get("limit"))
	if limit <= 0 || limit > 500 {
		limit = 100
	}
	if offset < 0 {
		offset = 0
	}
	resp := ListResponse{Total: len(all), Offset: offset, Items: []Status{}}
	if offset < len(all) {
		end := offset + limit
		if end > len(all) {
			end = len(all)
		}
		resp.Items = all[offset:end]
		if end < len(all) {
			resp.NextOffset = end
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant") + "/" + r.PathValue("id")
	st, ok := s.StatusOf(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown process " + id})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	rep, err := s.drain(r.Context())
	if err != nil {
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, rep)
	// The reply is out before Drained lets a waiting process exit. The
	// server shuts down behind it: Shutdown waits for this handler's own
	// connection to go idle, which it does once the handler returns.
	http.NewResponseController(w).Flush()
	go s.shutdownHTTP()
	s.markDrained()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	reason := ""
	switch {
	case s.crashed.Load():
		reason = "crashed"
	case s.closed.Load():
		reason = "closed"
	case s.draining.Load():
		reason = "draining"
	default:
		s.mu.Lock()
		queued := len(s.queue) + s.reserved
		s.mu.Unlock()
		if queued >= s.cfg.QueueDepth {
			reason = "overloaded"
		}
	}
	if reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, readiness{Ready: false, Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, readiness{Ready: true})
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	snap.Trace = nil // the SSE stream carries the trace; keep this light
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap.WriteJSON(w)
}
