package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqserve"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// cmdServe runs the batch validator as a resident HTTP service — the
// dqserve job API. Clients POST record streams against a model and poll
// for the exact report `dqwebre batch` would have printed:
//
//	dqwebre serve -model demo.xml -staging /var/lib/dqwebre &
//	curl -X POST --data-binary @reviews.ndjson 'localhost:8081/v1/jobs?unique=email_address'
//	curl localhost:8081/v1/jobs/<id>
//	curl localhost:8081/v1/jobs/<id>/report
//
// The staging directory makes jobs durable: a restarted server re-admits
// the jobs it finds there and re-runs them from their staged input.
// SIGINT/SIGTERM drains — in-flight jobs finish (up to -drain-timeout),
// queued jobs and jobs still running at the deadline stay staged for the
// next boot.
func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	modelPath := fs.String("model", "", "default model file jobs validate against")
	modelDir := fs.String("model-dir", "", "directory job ?model= references resolve in (default: the -model file's directory)")
	staging := fs.String("staging", "", "job staging directory (default: a temporary directory — jobs do not survive restarts)")
	jobWorkers := fs.Int("job-workers", 1, "jobs validated concurrently")
	maxJobs := fs.Int("max-jobs", 32, "bound on jobs being staged, queued or running; submissions beyond are shed with 503")
	rate := fs.Float64("rate", 0, "per-client sustained submissions/second; excess shed with 429 (0 disables)")
	rateBurst := fs.Int("rate-burst", 8, "per-client burst headroom above -rate")
	retainFor := fs.Duration("retain", time.Hour, "how long finished jobs (and their staged files/reports) stay available; <0 keeps them forever")
	maxBody := fs.Int64("max-body", 4<<30, "submission body cap in bytes; larger uploads are rejected with 413 (<0 disables)")
	readTimeout := fs.Duration("read-timeout", 5*time.Minute, "max time to read one submission body")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}
	if *modelPath == "" {
		return fmt.Errorf("serve needs -model (the default model jobs validate against)")
	}
	if *staging == "" {
		dir, err := os.MkdirTemp("", "dqserve-staging-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		*staging = dir
		fmt.Fprintf(out, "staging in temporary %s (pass -staging for durable jobs)\n", dir)
	}
	if *modelDir == "" {
		*modelDir = filepath.Dir(*modelPath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := dqserve.Config{
		StagingDir:   *staging,
		LoadEnforcer: LoadEnforcer,
		ModelDir:     *modelDir,
		DefaultModel: *modelPath,
		JobWorkers:   *jobWorkers,
		MaxJobs:      *maxJobs,
		RatePerSec:   *rate,
		RateBurst:    *rateBurst,
		RetainFor:    *retainFor,
		MaxBodyBytes: *maxBody,
	}
	return runServe(ctx, cfg, *addr, *readTimeout, *drainTimeout, nil, out)
}

// runServe builds the job server and serves it until ctx cancels, then
// drains: the HTTP front door closes first, then running jobs get up to
// drainTimeout to finish (queued jobs, and running ones the deadline
// interrupts, stay staged for the next boot's resume scan). When ln is nil a listener opens on addr; tests pass their
// own to learn the bound port.
func runServe(ctx context.Context, cfg dqserve.Config, addr string, readTimeout, drainTimeout time.Duration, ln net.Listener, out io.Writer) error {
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		return err
	}
	s.Start()

	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	if ln == nil {
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return err
		}
	}
	obs.Logger("dqserve").Info("validation service up",
		"addr", ln.Addr().String(), "model", cfg.DefaultModel, "staging", cfg.StagingDir)
	fmt.Fprintf(out, "listening on %s (submit jobs at /v1/jobs, metrics at /metrics, quality at /debug/quality)\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve never returns nil; any return before a shutdown signal is a
		// real failure (port stolen, listener closed, ...).
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "shutdown: draining jobs (up to %s)\n", drainTimeout)
	deadline := time.Now().Add(drainTimeout)
	httpCtx, cancelHTTP := context.WithDeadline(context.Background(), deadline)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		_ = srv.Close()
	}
	<-errc // reap the Serve goroutine

	drainCtx, cancelDrain := context.WithDeadline(context.Background(), deadline)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		return err
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}
