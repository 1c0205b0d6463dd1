package dqserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/webapp"
)

// Handler returns the job API:
//
//	POST   /v1/jobs            submit a record stream; 202 + job id
//	GET    /v1/jobs/{id}        status and progress
//	GET    /v1/jobs/{id}/report the finished (or partial) report
//	DELETE /v1/jobs/{id}        cancel; the partial report stays available
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus exposition (incl. dqserve_jobs_total)
//	GET    /debug/quality       windowed DQ score series across jobs
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/quality", s.handleQuality)
	return mux
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// apiError sends a JSON error body.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxContextBytes bounds a job's quality context label.
const maxContextBytes = 128

// parseOptions builds JobOptions from the submit query parameters,
// validating everything that can fail later so a bad job is rejected at
// the door, not at run time.
func parseOptions(r *http.Request) (JobOptions, error) {
	q := r.URL.Query()
	var o JobOptions
	ints := []struct {
		name string
		dst  *int
	}{{"workers", &o.Workers}, {"exemplars", &o.Exemplars},
		{"decode_errors", &o.DecodeErrors}, {"unique_max_exact", &o.UniqueMaxExact}}
	for _, p := range ints {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return o, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	// The context labels the server's quality series for as long as it
	// runs, so a client may not make it arbitrarily long.
	if o.Context = q.Get("context"); len(o.Context) > maxContextBytes {
		return o, fmt.Errorf("context is %d bytes, longer than %d", len(o.Context), maxContextBytes)
	}
	o.Unique = splitList(q.Get("unique"))
	o.Timeliness = q.Get("timeliness")
	o.Windows = splitList(q.Get("windows"))
	o.MaxAge = q.Get("max_age")
	o.MaxSkew = q.Get("max_skew")
	if _, err := o.engineOptions(); err != nil {
		return o, err
	}
	return o, nil
}

// splitList splits a comma-separated list, trimming whitespace and
// dropping empties.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// recordFormat picks the job's record format: explicit param first, then
// the Content-Type, then NDJSON.
func recordFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "ndjson", "csv":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("unknown record format %q (ndjson or csv)", f)
	}
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == "text/csv" {
		return "csv", nil
	}
	return "ndjson", nil
}

// handleSubmit admits one job: rate limit, then the admission count,
// then spill the body to the staging dir and sync it, persist the queued
// manifest that seals the job, and enqueue. A crash before the manifest
// leaves files the restart scan removes; the client never got the id.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.rate != nil && !s.rate.Allow(webapp.ClientKey(r)) {
		s.shedRate.Inc()
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusTooManyRequests, "rate limit exceeded, retry later")
		return
	}
	opts, err := parseOptions(r)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format, err := recordFormat(r)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The admission valve: beyond MaxJobs jobs being staged, queued or
	// running the submission is shed immediately — before any staging
	// I/O — so an overloaded server stays cheap to say no to.
	if !s.admit() {
		s.shedQueue.Inc()
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusServiceUnavailable, "job queue full, retry later")
		return
	}

	id, err := newJobID()
	if err != nil {
		s.release()
		apiError(w, http.StatusInternalServerError, "minting job id: %v", err)
		return
	}
	j := &Job{
		ID:        id,
		Format:    format,
		Opts:      opts,
		InputPath: stagingPath(s.cfg.StagingDir, id, inputSuffix),
		Created:   time.Now(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}

	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if err := s.stageSubmission(j, r); err != nil {
		s.release()
		s.discardStaging(id)
		var maxErr *http.MaxBytesError
		var stErr storageError
		switch {
		case errors.As(err, &maxErr):
			apiError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte submission cap", maxErr.Limit)
		case errors.As(err, &stErr):
			// Server-side staging fault (disk, fsync): the submission
			// itself was fine and a retry may succeed, so never blame the
			// client with a 4xx.
			apiError(w, http.StatusInternalServerError, "%v", err)
		default:
			apiError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if err := saveManifest(s.cfg.StagingDir, j); err != nil {
		s.release()
		s.discardStaging(id)
		apiError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	s.jobsSubmitted.Inc()
	s.enqueue(j)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":     j.ID,
		"state":  StateQueued,
		"status": "/v1/jobs/" + j.ID,
		"report": "/v1/jobs/" + j.ID + "/report",
	})
}

// stageSubmission resolves the job's model and spills its record stream to
// disk. A multipart body carries an inline model ("model" part) alongside
// the records ("records" part); any other body is the record stream
// itself, with the model named by the ?model= reference (or the server's
// default model).
func (s *Server) stageSubmission(j *Job, r *http.Request) error {
	mt, params, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if strings.HasPrefix(mt, "multipart/") {
		return s.stageMultipart(j, r, params["boundary"])
	}
	modelPath, err := s.resolveModel(r.URL.Query().Get("model"))
	if err != nil {
		return err
	}
	j.ModelPath = modelPath
	j.ModelRef = r.URL.Query().Get("model")
	if j.ModelRef == "" {
		j.ModelRef = "default"
	}
	return stageInput(j, r.Body)
}

// stageMultipart stages an inline-model submission: the "model" part is
// written beside the input and becomes the job's model file.
func (s *Server) stageMultipart(j *Job, r *http.Request, boundary string) error {
	if boundary == "" {
		return fmt.Errorf("multipart submission without boundary")
	}
	mr := multipart.NewReader(r.Body, boundary)
	var haveModel, haveRecords bool
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A truncated multipart body (client disconnect mid-upload)
			// surfaces here or from the part reader below; either way the
			// submission fails rather than validating partial input.
			return fmt.Errorf("reading multipart submission: %w", err)
		}
		switch part.FormName() {
		case "model":
			modelPath := stagingPath(s.cfg.StagingDir, j.ID, modelSuffix)
			if _, err := stageTo(modelPath, part); err != nil {
				return fmt.Errorf("staging inline model: %w", err)
			}
			j.ModelPath = modelPath
			j.ModelRef = modelRefInline
			haveModel = true
		case "records":
			if !haveModel {
				return fmt.Errorf(`multipart submission must carry the "model" part before "records"`)
			}
			if err := stageInput(j, part); err != nil {
				return err
			}
			haveRecords = true
		default:
			return fmt.Errorf("unknown multipart part %q (want model, records)", part.FormName())
		}
	}
	if !haveModel || !haveRecords {
		return fmt.Errorf(`multipart submission needs both a "model" and a "records" part`)
	}
	return nil
}

// stageInput spills the record stream to the job's input file and syncs
// it. The input is complete and durable when this returns nil; the
// manifest handleSubmit writes next is what seals the job.
func stageInput(j *Job, body io.Reader) error {
	n, err := stageTo(j.InputPath, body)
	if err != nil {
		return fmt.Errorf("staging input: %w", err)
	}
	j.InputBytes = n
	return nil
}

// discardStaging removes a job's staging files (failed submissions and
// retention-reaped terminal jobs alike).
func (s *Server) discardStaging(id string) {
	for _, suffix := range []string{inputSuffix, modelSuffix, reportSuffix, manifestSuffix} {
		_ = os.Remove(stagingPath(s.cfg.StagingDir, id, suffix))
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleReport serves the job's report — JSON by default (the persisted
// bytes, so restarts serve identical documents) or ?format=text rendered
// through the same dqbatch.RenderReport path as the CLI.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "text" {
		apiError(w, http.StatusBadRequest, "unknown report format %q (text or json)", format)
		return
	}
	j.mu.Lock()
	state := j.state
	errMsg := j.errMsg
	report := j.reportJSON
	res := j.result
	j.mu.Unlock()
	if !terminal(state) {
		apiError(w, http.StatusConflict, "job is %s; report not ready", state)
		return
	}
	if res == nil || report == nil {
		apiError(w, http.StatusConflict, "job %s without a report: %s", state, errMsg)
		return
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = dqbatch.RenderReport(w, res, "text")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(report)
}

// handleCancel cancels a job. A job still in the queue is taken off it and
// cancelled outright, giving its admission back at once; a running one has
// its context pulled and the handler waits for the engine to drain and the
// partial report to land before answering. Cancelling a finished job is a
// no-op that reports its state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	if s.unqueue(j) {
		s.finishJob(j, StateCancelled, nil, nil)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	j.mu.Lock()
	running := j.state == StateRunning
	cancel := j.cancelRun
	j.mu.Unlock()
	if running {
		cancel()
		select {
		case <-j.done:
		case <-r.Context().Done():
			apiError(w, http.StatusGatewayTimeout, "cancellation still draining")
			return
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, queued := len(s.jobs), len(s.queue)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"jobs":    jobs,
		"queued":  queued,
		"running": int(s.running.Value()),
	})
}

// handleMetrics serves the server's registry in the Prometheus text
// exposition, then the dq_score families rendered from the jobs' quality
// series, the same families the easychair server serves so one scrape
// config covers both.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
	_ = dqruntime.WriteScores(w, s.quality)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	data, err := json.MarshalIndent(s.quality.Report("dq_score", 0), "", "  ")
	if err != nil {
		apiError(w, http.StatusInternalServerError, "quality report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(append(data, '\n'))
}
