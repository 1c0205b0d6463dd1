package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"
)

// JobConfig parameterizes a job-API load run against a `dqwebre serve`
// server: each logical request POSTs a full NDJSON body to /v1/jobs and
// polls the returned job to a terminal state, so the run measures the
// whole submit→validate→report pipeline, not just the HTTP front door.
type JobConfig struct {
	// URL is the server base URL, e.g. "http://localhost:8081".
	URL string
	// Body is the NDJSON record payload each submission posts.
	Body []byte
	// Model is the ?model= reference; "" uses the server's default model.
	Model string
	// Jobs is the number of submissions; default 16.
	Jobs int
	// Concurrency is the number of concurrent submitters; default 4.
	Concurrency int
	// PollEvery is the status-poll interval; default 50ms.
	PollEvery time.Duration
	// Timeout is the per-request timeout; default 10s.
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one, whose
	// connections RunJobs closes before it returns.
	Client *http.Client
}

// JobResult aggregates a job-API load run.
type JobResult struct {
	// Submitted counts accepted submissions (202); Done/Failed/Cancelled
	// count how those jobs ended; Shed counts submissions the server
	// rejected with 429/503; Errors counts transport failures and
	// unexpected statuses.
	Submitted, Done, Failed, Cancelled, Shed, Errors int
	// SubmitLatencies measure POST /v1/jobs round trips (admission +
	// staging); CompleteLatencies measure submit-to-terminal-state spans.
	// Both sorted ascending.
	SubmitLatencies, CompleteLatencies []time.Duration
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
}

// RunJobs fires the configured job submissions and follows each to a
// terminal state. Like Run, it errors only on unusable configuration;
// shed submissions and transport failures are counted in the result.
func RunJobs(ctx context.Context, cfg JobConfig) (*JobResult, error) {
	base, err := baseURL(cfg.URL)
	if err != nil {
		return nil, err
	}
	if len(cfg.Body) == 0 {
		return nil, fmt.Errorf("loadgen: job body is required")
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 16
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	poll := cfg.PollEvery
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	client, closeIdle := newClient(cfg.Client, cfg.Timeout, workers)
	defer closeIdle()

	submitURL := base + "/v1/jobs"
	if cfg.Model != "" {
		submitURL += "?model=" + cfg.Model
	}

	shards, elapsed := closedLoop(ctx, workers, jobs, func(s *JobResult, _ int) {
		s.runOne(ctx, client, submitURL, base, cfg.Body, poll)
	})

	res := &JobResult{Elapsed: elapsed}
	for _, s := range shards {
		res.Submitted += s.Submitted
		res.Done += s.Done
		res.Failed += s.Failed
		res.Cancelled += s.Cancelled
		res.Shed += s.Shed
		res.Errors += s.Errors
		res.SubmitLatencies = append(res.SubmitLatencies, s.SubmitLatencies...)
		res.CompleteLatencies = append(res.CompleteLatencies, s.CompleteLatencies...)
	}
	slices.Sort(res.SubmitLatencies)
	slices.Sort(res.CompleteLatencies)
	return res, nil
}

// runOne submits one job and polls it to a terminal state, recording the
// outcome into r.
func (r *JobResult) runOne(ctx context.Context, client *http.Client, submitURL, base string, body []byte, poll time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, submitURL, bytes.NewReader(body))
	if err != nil {
		r.Errors++
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.Errors++
		}
		return
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	submitLat := time.Since(t0)
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.Shed++
		return
	default:
		r.Errors++
		return
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		r.Errors++
		return
	}
	r.Submitted++
	r.SubmitLatencies = append(r.SubmitLatencies, submitLat)

	statusURL := base + "/v1/jobs/" + accepted.ID
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(poll):
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, statusURL, nil)
		if err != nil {
			r.Errors++
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				r.Errors++
			}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			r.Errors++
			return
		}
		var status struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &status); err != nil {
			r.Errors++
			return
		}
		switch status.State {
		case "done":
			r.Done++
		case "failed":
			r.Failed++
		case "cancelled":
			r.Cancelled++
		default:
			continue
		}
		r.CompleteLatencies = append(r.CompleteLatencies, time.Since(t0))
		return
	}
}

// WriteReport renders the human-readable job-run report.
func (r *JobResult) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "jobs:        %d submitted (%d done, %d failed, %d cancelled), %d errors in %s\n",
		r.Submitted, r.Done, r.Failed, r.Cancelled, r.Errors, r.Elapsed.Round(time.Millisecond))
	if len(r.SubmitLatencies) > 0 {
		fmt.Fprintf(w, "submit:      p50=%s p99=%s max=%s\n",
			percentile(r.SubmitLatencies, 50).Round(time.Microsecond),
			percentile(r.SubmitLatencies, 99).Round(time.Microsecond),
			r.SubmitLatencies[len(r.SubmitLatencies)-1].Round(time.Microsecond))
	}
	if len(r.CompleteLatencies) > 0 {
		fmt.Fprintf(w, "complete:    p50=%s p99=%s max=%s\n",
			percentile(r.CompleteLatencies, 50).Round(time.Microsecond),
			percentile(r.CompleteLatencies, 99).Round(time.Microsecond),
			r.CompleteLatencies[len(r.CompleteLatencies)-1].Round(time.Microsecond))
	}
	fmt.Fprintf(w, "shed:        %d (429 rate-limited + 503 queue full)\n", r.Shed)
}
