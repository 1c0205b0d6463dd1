package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Server-side telemetry correlation: a load run without the server's view
// only tells half the story (a 503 counted client-side could be the
// limiter or a proxy). ScrapeMetrics grabs the target's /metrics before
// and after the run, and ServerDelta reports what the server says it did
// in between — shed counts by reason, session churn, in-flight level —
// so the client and server numbers can be lined up in one report.

// MetricsSnapshot maps exposition sample keys — `name` or
// `name{labels...}` verbatim — to their values at scrape time.
type MetricsSnapshot map[string]float64

// ScrapeMetrics fetches and parses a Prometheus text exposition endpoint.
// Histogram bucket/sum/count samples come back under their full sample
// names like any other series.
func ScrapeMetrics(ctx context.Context, client *http.Client, url string) (MetricsSnapshot, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", url, resp.Status)
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics reads a Prometheus text exposition into a snapshot.
// Comment and malformed lines are skipped — a scrape for deltas must not
// fail because one family renders oddly.
func ParseMetrics(r io.Reader) (MetricsSnapshot, error) {
	snap := make(MetricsSnapshot)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space; label values may
		// contain spaces, so cut from the right.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		key := strings.TrimSpace(line[:i])
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// Family sums every series of one metric family (the bare name plus any
// labeled series).
func (s MetricsSnapshot) Family(name string) float64 {
	var total float64
	for key, v := range s {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}

// ServerDelta is the server-side story of one load run, derived from two
// snapshots of the target's /metrics.
type ServerDelta struct {
	// Requests is the growth of http_requests_total across the run.
	Requests float64
	// Shed is the growth of http_requests_shed_total, split by reason
	// label (concurrency, rate); ShedTotal sums them.
	Shed      map[string]float64
	ShedTotal float64
	// SessionsCreated is the growth of webapp_sessions_created_total;
	// SessionsActive the gauge's closing value.
	SessionsCreated float64
	SessionsActive  float64
	// Inflight is the closing http_inflight_requests level — non-zero
	// after the run means requests were still draining at scrape time.
	Inflight float64
}

// DiffServerMetrics derives the run's server-side deltas from the before
// and after snapshots.
func DiffServerMetrics(before, after MetricsSnapshot) ServerDelta {
	d := ServerDelta{
		Requests:        after.Family("http_requests_total") - before.Family("http_requests_total"),
		Shed:            make(map[string]float64),
		SessionsCreated: after.Family("webapp_sessions_created_total") - before.Family("webapp_sessions_created_total"),
		SessionsActive:  after.Family("webapp_sessions_active"),
		Inflight:        after.Family("http_inflight_requests"),
	}
	const shedName = "http_requests_shed_total"
	for key, v := range after {
		if key != shedName && !strings.HasPrefix(key, shedName+"{") {
			continue
		}
		delta := v - before[key]
		if delta == 0 {
			continue
		}
		reason := "unknown"
		if i := strings.Index(key, `reason="`); i >= 0 {
			rest := key[i+len(`reason="`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				reason = rest[:j]
			}
		}
		d.Shed[reason] += delta
		d.ShedTotal += delta
	}
	return d
}

// WriteReport renders the server-side section of a load report.
func (d ServerDelta) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "server:      %.0f requests observed, %.0f shed", d.Requests, d.ShedTotal)
	if len(d.Shed) > 0 {
		reasons := make([]string, 0, len(d.Shed))
		for r := range d.Shed {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		parts := make([]string, len(reasons))
		for i, r := range reasons {
			parts[i] = fmt.Sprintf("%s %.0f", r, d.Shed[r])
		}
		fmt.Fprintf(w, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "sessions:    %.0f created during the run, %.0f active after\n",
		d.SessionsCreated, d.SessionsActive)
	fmt.Fprintf(w, "inflight:    %.0f still in flight at final scrape\n", d.Inflight)
}

// jobStates are the dqserve_jobs_total states a job-mode load report
// cross-checks, in report order.
var jobStates = []string{"submitted", "completed", "failed", "cancelled", "shed_queue", "shed_rate"}

// JobDelta is the growth of dqserve_jobs_total across a job-mode run, by
// state label: what the job server says it admitted, finished and shed.
type JobDelta map[string]float64

// DiffJobMetrics derives the run's dqserve_jobs_total deltas by state from
// the before and after snapshots.
func DiffJobMetrics(before, after MetricsSnapshot) JobDelta {
	d := make(JobDelta, len(jobStates))
	for _, st := range jobStates {
		key := `dqserve_jobs_total{state="` + st + `"}`
		d[st] = after[key] - before[key]
	}
	return d
}

// WriteReport renders the server-side section of a job-mode load report.
func (d JobDelta) WriteReport(w io.Writer) {
	parts := make([]string, len(jobStates))
	for i, st := range jobStates {
		parts[i] = fmt.Sprintf("%.0f %s", d[st], st)
	}
	fmt.Fprintf(w, "server:      %s (dqserve_jobs_total)\n", strings.Join(parts, ", "))
}
