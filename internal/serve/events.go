// Server-sent events: one stream per submission carrying its status
// transitions and the decision-trace events the scheduler recorded for
// any of its incarnations. The stream tails the metrics registry's
// ring buffer by sequence number — the same trace the batch engines
// already populate — and closes itself once the submission is final.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/process"
)

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant") + "/" + r.PathValue("id")
	s.mu.Lock()
	sub, ok := s.subs[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown process " + id})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}

	var lastVersion int64 = -1
	var lastSeq int64
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		version := sub.version
		st := sub.status()
		s.mu.Unlock()
		changed := false
		if version != lastVersion {
			lastVersion = version
			send("status", st)
			changed = true
		}
		for _, ev := range s.reg.Events() {
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			if string(process.ID(ev.Proc).Origin()) != id {
				continue
			}
			send("trace", ev)
			changed = true
		}
		if changed {
			fl.Flush()
		}
		if st.Final || s.crashed.Load() || s.closed.Load() {
			send("done", st)
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// TraceTail returns the retained decision-trace events of one
// submission (origin-folded), for clients that prefer polling to SSE.
func (s *Server) TraceTail(id string) []metrics.Event {
	var out []metrics.Event
	for _, ev := range s.reg.Events() {
		if string(process.ID(ev.Proc).Origin()) == id {
			out = append(out, ev)
		}
	}
	return out
}
