// Package loadgen drives configurable concurrent HTTP traffic at a running
// server and reports throughput, latency percentiles and shed counts. It
// exists to exercise the serving stack's resilience layer end to end: the
// concurrency and rate limiters show up as 503/429 in its report, and the
// drain path can be benchmarked by shutting the server down mid-run.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes one load run.
type Config struct {
	// URL is the target base URL, e.g. "http://localhost:8080".
	URL string
	// Paths are request paths appended to URL round-robin; default "/".
	Paths []string
	// Concurrency is the number of worker goroutines; default 8.
	Concurrency int
	// Requests is the total request budget; <= 0 means run until Duration.
	Requests int
	// Duration bounds the run in time; <= 0 with Requests <= 0 defaults to
	// 2048 requests.
	Duration time.Duration
	// Timeout is the per-request timeout; default 10s.
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one, whose
	// connections Run closes before it returns.
	Client *http.Client
}

// Result is the aggregated outcome of a load run.
type Result struct {
	// Total counts completed requests (any status); Errors counts
	// transport failures (connection refused, timeout, ...).
	Total, Errors int
	// Status counts responses by status code.
	Status map[int]int
	// Shed counts 429 + 503 responses: traffic the server deliberately
	// rejected to protect itself.
	Shed int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// Latencies of successful round trips, sorted ascending.
	Latencies []time.Duration
}

// Throughput returns completed requests per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Total) / r.Elapsed.Seconds()
}

// Percentile returns the p-th latency percentile (0 < p <= 100); 0 when no
// latencies were recorded.
func (r *Result) Percentile(p float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(r.Latencies))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.Latencies) {
		idx = len(r.Latencies) - 1
	}
	return r.Latencies[idx]
}

// Run fires the configured load and aggregates the outcome. It returns an
// error only for unusable configuration; transport failures are counted in
// the result, since shedding servers legitimately reset connections.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if strings.TrimSpace(cfg.URL) == "" {
		return nil, fmt.Errorf("loadgen: target URL is required")
	}
	base := strings.TrimSuffix(cfg.URL, "/")
	paths := cfg.Paths
	if len(paths) == 0 {
		paths = []string{"/"}
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 8
	}
	budget := cfg.Requests
	if budget <= 0 && cfg.Duration <= 0 {
		budget = 2048
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        workers * 2,
				MaxIdleConnsPerHost: workers * 2,
			},
		}
		// Close what the run leaves behind: a connection dialed but never
		// used stays StateNew on the server, and http.Server.Shutdown waits
		// up to 5s for it (Go issue 22682).
		defer client.CloseIdleConnections()
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	var next atomic.Int64 // request sequence; also round-robins paths
	type shard struct {
		total, errors, shed int
		status              map[int]int
		lat                 []time.Duration
	}
	shards := make([]shard, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.status = make(map[int]int)
			for {
				seq := next.Add(1)
				if budget > 0 && int(seq) > budget {
					return
				}
				if ctx.Err() != nil {
					return
				}
				path := paths[int(seq)%len(paths)]
				if !strings.HasPrefix(path, "/") {
					path = "/" + path
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
				if err != nil {
					s.errors++
					continue
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					s.errors++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				s.total++
				s.status[resp.StatusCode]++
				if resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable {
					s.shed++
				}
				s.lat = append(s.lat, time.Since(t0))
			}
		}(&shards[w])
	}
	wg.Wait()

	res := &Result{Status: make(map[int]int), Elapsed: time.Since(start)}
	for i := range shards {
		res.Total += shards[i].total
		res.Errors += shards[i].errors
		res.Shed += shards[i].shed
		for code, n := range shards[i].status {
			res.Status[code] += n
		}
		res.Latencies = append(res.Latencies, shards[i].lat...)
	}
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	return res, nil
}

// WriteReport renders the human-readable run report.
func (r *Result) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "requests:    %d completed, %d transport errors in %s\n",
		r.Total, r.Errors, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput:  %.1f req/s\n", r.Throughput())
	if len(r.Latencies) > 0 {
		fmt.Fprintf(w, "latency:     p50=%s p90=%s p99=%s max=%s\n",
			r.Percentile(50).Round(time.Microsecond),
			r.Percentile(90).Round(time.Microsecond),
			r.Percentile(99).Round(time.Microsecond),
			r.Latencies[len(r.Latencies)-1].Round(time.Microsecond))
	}
	codes := make([]int, 0, len(r.Status))
	for code := range r.Status {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "status %d:  %d\n", code, r.Status[code])
	}
	fmt.Fprintf(w, "shed:        %d (429 rate-limited + 503 overload)\n", r.Shed)
}
