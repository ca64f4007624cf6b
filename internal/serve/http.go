package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /jobs          submit a trace set; 202 + job snapshot, or 429
//	                    (queue budget exhausted, with Retry-After) /
//	                    503 (draining)
//	GET  /jobs          list all job snapshots (no reports)
//	GET  /jobs/{id}     one job; ?wait=DURATION long-polls for a
//	                    terminal state; terminal done jobs embed the
//	                    full report
//	GET  /healthz       liveness (always 200 while the process serves)
//	GET  /readyz        readiness (503 once draining)
//
// plus the standard observability surface (/metrics, /stats,
// /stats.json, /debug/pprof/*) shared with the stats listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	obs.RegisterStats(mux, s.cfg.Obs)
	return mux
}

// jobResponse is the wire form of a job snapshot.
type jobResponse struct {
	ID         string          `json:"id"`
	Status     Status          `json:"status"`
	Degraded   bool            `json:"degraded"`
	Violations int             `json:"violations"`
	Error      string          `json:"error,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
}

func toResponse(j Job, withReport bool) jobResponse {
	resp := jobResponse{
		ID: j.ID, Status: j.Status, Degraded: j.Degraded,
		Violations: j.Violations, Error: j.Error,
	}
	if withReport && j.Status == StatusDone && j.Report != nil {
		if data, err := j.Report.JSON(); err == nil {
			resp.Report = data
		}
	}
	return resp
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSubmissionBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sub, err := ParseSubmission(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.Submit(sub)
	switch {
	case errors.Is(err, ErrOverloaded):
		// Load shedding: tell the client when to come back rather than
		// queueing without bound. The budget drains at job-latency
		// speed, so a short fixed hint is honest enough.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, toResponse(job, false))
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := struct {
		Jobs []jobResponse `json:"jobs"`
	}{Jobs: make([]jobResponse, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, toResponse(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// maxWait caps the ?wait long-poll so a stalled client cannot pin a
// handler goroutine indefinitely.
const maxWait = time.Minute

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && !j.Status.Terminal() {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, errors.New("serve: bad wait duration"))
			return
		}
		if d > maxWait {
			d = maxWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		j, _ = s.WaitJob(ctx, id)
		cancel()
	}
	writeJSON(w, http.StatusOK, toResponse(j, true))
}
