package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/modeldriven/dqwebre/internal/loadgen"
)

// cmdLoad drives concurrent traffic at a running server (typically
// cmd/easychair) and reports throughput, latency percentiles and how much
// traffic the resilience layer shed — the operational counterpart of the
// library's micro-benchmarks.
func cmdLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	url := fs.String("url", "http://localhost:8080", "target base URL")
	paths := fs.String("paths", "/", "comma-separated request paths, hit round-robin")
	concurrency := fs.Int("c", 8, "concurrent workers")
	requests := fs.Int("n", 0, "total requests (0 = run for -d)")
	duration := fs.Duration("d", 0, "run duration (0 with -n 0 = 2048 requests)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	jobs := fs.Int("jobs", 0, "job-API mode: submit this many validation jobs to a `dqwebre serve` target")
	jobBody := fs.String("job-body", "", "records file POSTed per job (job-API mode)")
	model := fs.String("model", "", "model reference passed with each job (job-API mode; default: server default)")
	poll := fs.Duration("poll", 50*time.Millisecond, "job status poll interval (job-API mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("load takes no positional arguments")
	}
	if *jobs > 0 {
		return runJobLoad(out, *url, *jobBody, *model, *jobs, *concurrency, *poll, *timeout)
	}
	var pathList []string
	for _, p := range strings.Split(*paths, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pathList = append(pathList, p)
		}
	}
	cfg := loadgen.Config{
		URL:         *url,
		Paths:       pathList,
		Concurrency: *concurrency,
		Requests:    *requests,
		Duration:    *duration,
		Timeout:     *timeout,
	}
	fmt.Fprintf(out, "load: %s %s, %d workers", *url, strings.Join(pathList, ","), cfg.Concurrency)
	if *requests > 0 {
		fmt.Fprintf(out, ", %d requests\n", *requests)
	} else if *duration > 0 {
		fmt.Fprintf(out, ", %s\n", *duration)
	} else {
		fmt.Fprintln(out, ", 2048 requests")
	}
	// Bracket the run with /metrics scrapes so the final report lines the
	// client-side view up with what the server says it shed and held. A
	// target without /metrics degrades gracefully: the section is skipped.
	ctx := context.Background()
	scrapeClient := &http.Client{Timeout: *timeout}
	metricsURL := strings.TrimSuffix(*url, "/") + "/metrics"
	before, scrapeErr := loadgen.ScrapeMetrics(ctx, scrapeClient, metricsURL)

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	res.WriteReport(out)
	if scrapeErr == nil {
		after, err := loadgen.ScrapeMetrics(ctx, scrapeClient, metricsURL)
		if err != nil {
			scrapeErr = err
		} else {
			loadgen.DiffServerMetrics(before, after).WriteReport(out)
		}
	}
	if scrapeErr != nil {
		fmt.Fprintf(out, "server:      telemetry unavailable (%v)\n", scrapeErr)
	}
	if res.Total == 0 && res.Errors > 0 {
		return fmt.Errorf("load: no request completed (%d transport errors) — is the server up?", res.Errors)
	}
	return nil
}

// runJobLoad is `dqwebre load -jobs N`: it drives the dqserve job API,
// submitting whole NDJSON bodies and following each job to a terminal
// state, so the report covers submit latency, end-to-end completion
// latency and how many submissions the admission valves shed, lined up
// with the server's own dqserve_jobs_total counts.
func runJobLoad(out io.Writer, url, bodyPath, model string, jobs, concurrency int, poll, timeout time.Duration) error {
	if bodyPath == "" {
		return fmt.Errorf("load -jobs needs -job-body (the records file each job posts)")
	}
	body, err := os.ReadFile(bodyPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "load: %s job API, %d jobs, %d submitters\n", url, jobs, concurrency)
	ctx := context.Background()
	scrapeClient := &http.Client{Timeout: timeout}
	metricsURL := strings.TrimSuffix(url, "/") + "/metrics"
	before, scrapeErr := loadgen.ScrapeMetrics(ctx, scrapeClient, metricsURL)

	res, err := loadgen.RunJobs(ctx, loadgen.JobConfig{
		URL:         url,
		Body:        body,
		Model:       model,
		Jobs:        jobs,
		Concurrency: concurrency,
		PollEvery:   poll,
		Timeout:     timeout,
	})
	if err != nil {
		return err
	}
	res.WriteReport(out)
	if scrapeErr == nil {
		after, err := loadgen.ScrapeMetrics(ctx, scrapeClient, metricsURL)
		if err != nil {
			scrapeErr = err
		} else {
			loadgen.DiffJobMetrics(before, after).WriteReport(out)
		}
	}
	if scrapeErr != nil {
		fmt.Fprintf(out, "server:      telemetry unavailable (%v)\n", scrapeErr)
	}
	if res.Submitted == 0 && res.Errors > 0 {
		return fmt.Errorf("load: no job accepted (%d transport errors) — is the server up?", res.Errors)
	}
	return nil
}
