// Package dqserve turns the one-shot batch validator into a resident
// validation service: an HTTP job API over the internal/dqbatch engine.
// Clients POST a record stream (NDJSON or CSV) against a model reference
// (or an inline model) and get back a job id; the server spills the input
// to disk, runs it through a bounded worker pool, and serves the exact
// report `dqwebre batch` would have produced — byte-identical, including
// cross-record findings and decode errors, because both render through
// dqbatch.RenderReport over the same engine.
//
// Admission has two valves: internal/webapp's per-client token bucket
// sheds hot submitters with 429, and one admission count, kept under the
// server's lock beside the job table and a FIFO queue, bounds jobs being
// staged, queued or running to MaxJobs and sheds the excess with 503.
// Cancelling a queued job takes it off the queue and gives its admission
// back at once. Durability comes from the staging directory: a job's
// input is staged and synced before its manifest seals it, so a server
// restart re-admits every interrupted job and re-runs it from its staged
// input, and removes the files of uploads that never got a job id.
// Validation is deterministic at any worker count, so the resumed report
// equals an uninterrupted run's, except that mean_score may differ in its
// last bits at more than one worker (shards add float sums in scheduling
// order).
package dqserve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/webapp"
)

// Config assembles a Server. StagingDir and LoadEnforcer are required;
// every other field has a serving-grade default.
type Config struct {
	// StagingDir holds per-job state: staged inputs, inline models,
	// manifests and reports. A server restarted against the same directory
	// resumes the jobs it finds there and removes the files of uploads
	// that died before their manifest was written.
	StagingDir string
	// LoadEnforcer loads a model file and assembles its runtime enforcer
	// (the CLI injects its loader, which auto-transforms DQR models to
	// DQSR). Enforcers are cached per model path across jobs.
	LoadEnforcer func(path string) (*dqruntime.Enforcer, error)
	// ModelDir is the directory job-supplied model references resolve in;
	// "" restricts jobs to DefaultModel or inline models.
	ModelDir string
	// DefaultModel is the model path used when a job names none.
	DefaultModel string
	// JobWorkers is the number of jobs validated concurrently; default 1.
	// Each job additionally fans out over its own batch worker pool.
	JobWorkers int
	// MaxJobs bounds the jobs being staged, queued or running; submissions
	// beyond it are shed with 503. Default 32.
	MaxJobs int
	// RatePerSec/RateBurst apply the per-client token bucket to job
	// submissions (429 beyond); RatePerSec 0 disables it.
	RatePerSec float64
	RateBurst  int
	// RetainFor bounds how long a terminal job — its staging files and its
	// API entry — outlives completion; a janitor sweeps older jobs so a
	// long-running server's disk and job table stay bounded. Default 1h;
	// negative retains terminal jobs forever.
	RetainFor time.Duration
	// MaxBodyBytes caps a submission's request body; larger uploads are
	// rejected with 413 before they can fill the staging disk. Default
	// 4 GiB; negative disables the cap.
	MaxBodyBytes int64
	// Registry receives the server's metrics and backs its /metrics; nil
	// gives the server a registry of its own. A registry shared by two
	// servers adds their counts together.
	Registry *obs.Registry
}

// Server is the resident validation service. Create with NewServer, wire
// Handler into an http.Server, call Start, and Drain on shutdown.
type Server struct {
	cfg Config
	reg *obs.Registry
	// quality receives per-characteristic attribution from every job
	// (one-minute windows, an hour kept), served on /debug/quality and
	// rendered as the dq_score families on /metrics.
	quality *obs.SeriesSet

	// rate is the per-client token bucket; nil when RatePerSec is 0.
	rate *webapp.RateLimiter

	quit     chan struct{} // closed by stop; ends the janitor
	wg       sync.WaitGroup
	draining atomic.Bool

	// mu guards the job table, the queue and the admission count. Take it
	// before a Job's mu.
	mu   sync.Mutex
	jobs map[string]*Job
	// queue holds the jobs waiting for a worker, oldest first. Workers wait
	// on ready until it is non-empty or the server stops.
	queue []*Job
	ready sync.Cond
	// admitted counts the jobs being staged, queued or running.
	admitted int

	enfMu    sync.Mutex
	enfCache map[string]*dqruntime.Enforcer

	jobsSubmitted *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsResumed   *obs.Counter
	shedQueue     *obs.Counter
	shedRate      *obs.Counter
	queueDepth    *obs.Gauge
	running       *obs.Gauge

	// beforeRun, when non-nil, runs on the worker goroutine after a job is
	// marked running and before the engine starts — the tests'
	// synchronization point for holding the pool busy deterministically.
	beforeRun func(*Job)
}

// NewServer validates cfg, prepares the staging directory and re-admits
// any resumable jobs found in it. Call Start to begin executing jobs.
func NewServer(cfg Config) (*Server, error) {
	if cfg.StagingDir == "" {
		return nil, fmt.Errorf("dqserve: Config.StagingDir is required")
	}
	if cfg.LoadEnforcer == nil {
		return nil, fmt.Errorf("dqserve: Config.LoadEnforcer is required")
	}
	if err := os.MkdirAll(cfg.StagingDir, 0o755); err != nil {
		return nil, fmt.Errorf("dqserve: staging dir: %w", err)
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 32
	}
	if cfg.RetainFor == 0 {
		cfg.RetainFor = time.Hour
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 4 << 30
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	s := &Server{
		cfg:      cfg,
		reg:      reg,
		quality:  obs.NewSeriesSet(time.Minute, 60),
		quit:     make(chan struct{}),
		jobs:     make(map[string]*Job),
		enfCache: make(map[string]*dqruntime.Enforcer),
	}
	s.ready.L = &s.mu
	if cfg.RatePerSec > 0 {
		s.rate = webapp.NewRateLimiter(cfg.RatePerSec, cfg.RateBurst)
		s.rate.Instrument(reg)
	}

	const jobsHelp = "Validation jobs by lifecycle state transition"
	s.jobsSubmitted = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "submitted"})
	s.jobsCompleted = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "completed"})
	s.jobsFailed = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "failed"})
	s.jobsCancelled = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "cancelled"})
	s.jobsResumed = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "resumed"})
	s.shedQueue = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "shed_queue"})
	s.shedRate = reg.Counter("dqserve_jobs_total", jobsHelp, obs.Labels{"state": "shed_rate"})
	s.queueDepth = reg.Gauge("dqserve_queue_depth", "Jobs waiting for a worker", nil)
	s.running = reg.Gauge("dqserve_jobs_running", "Jobs currently validating", nil)

	if err := s.resumeScan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Start launches the job workers and the retention janitor.
func (s *Server) Start() {
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.RetainFor > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
}

// janitor periodically reaps terminal jobs older than RetainFor. Without
// it every finished job would pin its staged input, model, manifest and
// report on disk (and its entry in the job table) for the life of the
// process.
func (s *Server) janitor() {
	defer s.wg.Done()
	every := s.cfg.RetainFor / 4
	if every > time.Minute {
		every = time.Minute
	}
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.gcTerminal(time.Now().Add(-s.cfg.RetainFor))
		}
	}
}

// gcTerminal drops every terminal job finished before cutoff from the job
// table and removes its staging files. Returns how many jobs it reaped.
func (s *Server) gcTerminal(cutoff time.Time) int {
	s.mu.Lock()
	var reap []*Job
	for id, j := range s.jobs {
		j.mu.Lock()
		if terminal(j.state) && !j.finished.IsZero() && j.finished.Before(cutoff) {
			reap = append(reap, j)
			delete(s.jobs, id)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range reap {
		s.discardStaging(j.ID)
	}
	return len(reap)
}

// Drain stops accepting submissions, lets running jobs finish, and leaves
// queued jobs staged on disk for the next boot to resume. When ctx expires
// first, the remaining running jobs are interrupted as by a crash: their
// runs stop, their manifests still say queued, and they resume after
// restart. Drain returns nil when every in-flight job completed within the
// deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed with jobs still validating: pull their plugs. The
	// engine drains its pool on cancellation, so the workers still exit
	// cleanly, and no interrupted job reaches a terminal state on disk.
	s.interrupt()
	<-done
	return fmt.Errorf("dqserve: drain deadline exceeded; running jobs left to resume")
}

// interrupt marks every job crashed and cancels the running ones, so no
// run that is still going moves its job to a terminal state on disk: the
// manifests keep saying queued, exactly what a killed process leaves
// behind. A client's DELETE is not an interrupt and still lands cancelled.
func (s *Server) interrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		j.crashed = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
		j.mu.Unlock()
	}
}

// stop turns submissions away and tells the workers and the janitor to
// exit. Queued jobs stay in the queue, staged for the next boot.
func (s *Server) stop() {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.ready.Broadcast()
	close(s.quit)
}

// Job returns a job by id, nil when unknown.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobIDBytes is the random length of a job id, which is hex-encoded.
const jobIDBytes = 6

// newJobID mints a 12-hex-character job id.
func newJobID() (string, error) {
	var b [jobIDBytes]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// isJobID reports whether s has the shape newJobID mints, which is how the
// restart scan tells job files from anything else in the staging dir.
func isJobID(s string) bool {
	b, err := hex.DecodeString(s)
	return err == nil && len(b) == jobIDBytes
}

// resolveModel maps a job's model reference to a readable file path:
// "" means the configured default model, anything else must be a local
// (traversal-free) path under ModelDir.
func (s *Server) resolveModel(ref string) (string, error) {
	if ref == "" {
		if s.cfg.DefaultModel == "" {
			return "", fmt.Errorf("no model given and no default model configured")
		}
		return s.cfg.DefaultModel, nil
	}
	if s.cfg.ModelDir == "" {
		return "", fmt.Errorf("model references are disabled (no model directory configured)")
	}
	if !filepath.IsLocal(ref) {
		return "", fmt.Errorf("model reference %q escapes the model directory", ref)
	}
	path := filepath.Join(s.cfg.ModelDir, ref)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("model %q: %w", ref, err)
	}
	return path, nil
}

// enforcer returns the enforcer for a model path, caching it across jobs
// when cache is true. Validators are safe for concurrent use across jobs.
// Inline models are per-job files, so caching their enforcers would add
// one permanently-dead cache entry per submission — callers pass
// cache=false for those and the enforcer dies with the job.
func (s *Server) enforcer(path string, cache bool) (*dqruntime.Enforcer, error) {
	if !cache {
		return s.cfg.LoadEnforcer(path)
	}
	s.enfMu.Lock()
	defer s.enfMu.Unlock()
	if enf, ok := s.enfCache[path]; ok {
		return enf, nil
	}
	enf, err := s.cfg.LoadEnforcer(path)
	if err != nil {
		return nil, err
	}
	s.enfCache[path] = enf
	return enf, nil
}

// admit claims an admission for a new submission, false when MaxJobs jobs
// are already being staged, queued or running.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.admitted >= s.cfg.MaxJobs {
		return false
	}
	s.admitted++
	return true
}

// release gives an admission back.
func (s *Server) release() {
	s.mu.Lock()
	s.admitted--
	s.mu.Unlock()
}

// enqueue registers an admitted job and puts it at the tail of the queue.
func (s *Server) enqueue(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.queueDepth.Set(float64(len(s.queue)))
	s.mu.Unlock()
	s.ready.Signal()
}

// unqueue takes j off the queue and reports whether it was there. A job
// it takes off never runs; any other job is running or terminal.
func (s *Server) unqueue(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.queue, j)
	if i < 0 {
		return false
	}
	s.queue = slices.Delete(s.queue, i, i+1)
	s.queueDepth.Set(float64(len(s.queue)))
	return true
}

// next waits for the head of the queue and marks it running in the same
// critical section that takes it off, so a cancel finds every job either
// in the queue or running with a context to cancel. It returns a nil job
// once the server stops, leaving the rest of the queue staged.
func (s *Server) next() (*Job, context.Context, context.CancelFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.draining.Load() {
		s.ready.Wait()
	}
	if s.draining.Load() {
		return nil, nil, nil
	}
	j := s.queue[0]
	s.queue = slices.Delete(s.queue, 0, 1)
	s.queueDepth.Set(float64(len(s.queue)))
	ctx, cancel := context.WithCancel(context.Background())
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.cancelRun = cancel
	j.mu.Unlock()
	return j, ctx, cancel
}

// worker runs jobs from the queue until the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ctx, cancel := s.next()
		if j == nil {
			return
		}
		s.runJob(ctx, j)
		cancel()
	}
}

// resumeScan reloads the staging directory. It first removes what a crash
// leaves mid-write: every job file ending in .tmp (an atomic write that
// never reached its rename) and every file of a job id with no manifest
// (an upload that died before its client got the id). Then finished jobs
// become servable again and interrupted ones are re-queued: a manifest is
// written only after its input is staged, so that input is whole. Every
// interrupted job is re-admitted, even past MaxJobs, since its client
// already holds its id; new submissions are shed until the backlog falls
// below MaxJobs.
func (s *Server) resumeScan() error {
	entries, err := os.ReadDir(s.cfg.StagingDir)
	if err != nil {
		return fmt.Errorf("dqserve: scanning staging dir: %w", err)
	}
	var ids []string // sorted, as ReadDir sorts by name
	sealed := make(map[string]bool)
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), manifestSuffix); ok && isJobID(id) {
			ids = append(ids, id)
			sealed[id] = true
		}
	}
	for _, e := range entries {
		name := e.Name()
		id, _, _ := strings.Cut(name, ".")
		if isJobID(id) && (!sealed[id] || strings.HasSuffix(name, tmpSuffix)) {
			if err := os.Remove(filepath.Join(s.cfg.StagingDir, name)); err != nil {
				obs.Logger("dqserve").Warn("removing orphaned staging file", "file", name, "err", err)
			}
		}
	}
	for _, id := range ids {
		j, err := loadJob(s.cfg.StagingDir, id)
		if err != nil {
			// A torn manifest write (crash mid-rename is excluded by the
			// tmp+rename discipline, but a full disk is not) loses one job,
			// not the server.
			obs.Logger("dqserve").Warn("skipping unreadable job manifest", "id", id, "err", err)
			continue
		}
		switch j.state {
		case StateDone, StateFailed, StateCancelled:
			// loadJob already closed Done; it is servable as-is.
			s.mu.Lock()
			s.jobs[j.ID] = j
			s.mu.Unlock()
		case StateQueued, StateRunning:
			// Older servers persisted running; it means the same as queued.
			j.state = StateQueued
			if err := saveManifest(s.cfg.StagingDir, j); err != nil {
				obs.Logger("dqserve").Warn("persisting resumed job", "id", id, "err", err)
			}
			s.jobsResumed.Inc()
			s.mu.Lock()
			s.admitted++
			s.mu.Unlock()
			s.enqueue(j)
		}
	}
	return nil
}
