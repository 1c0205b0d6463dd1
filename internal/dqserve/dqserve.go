// Package dqserve turns the one-shot batch validator into a resident
// validation service: an HTTP job API over the internal/dqbatch engine.
// Clients POST a record stream (NDJSON or CSV) against a model reference
// (or an inline model) and get back a job id; the server spills the input
// to disk, runs it through a bounded worker pool, and serves the exact
// report `dqwebre batch` would have produced — byte-identical, including
// cross-record findings and decode errors, because both render through
// dqbatch.RenderReport over the same engine.
//
// The serving-layer discipline comes from internal/webapp: a per-client
// token bucket sheds hot submitters with 429, a concurrency limiter bounds
// queued-plus-running jobs and sheds the excess with 503, and both export
// their shed counters through internal/obs. Durability comes from the
// staging directory: every job's input is staged with chunk-offset
// checkpoints before it runs, so a server restart re-admits interrupted
// jobs and re-runs them from their staged input — validation is
// deterministic at any worker count, so the resumed report equals an
// uninterrupted run's.
package dqserve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
	// StagingDir holds per-job state: staged inputs, manifests, chunk
	// checkpoints and reports. A server restarted against the same
	// directory resumes the jobs it finds there.
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
	// MaxJobs bounds queued-plus-running jobs; submissions beyond it are
	// shed with 503. Default 32.
	MaxJobs int
	// RatePerSec/RateBurst apply the per-client token bucket to job
	// submissions (429 beyond); RatePerSec 0 disables it.
	RatePerSec float64
	RateBurst  int
	// CheckpointEvery is the progress-checkpoint interval while a job
	// runs; default 2s.
	CheckpointEvery time.Duration
	// StageChunkBytes is the staging copy granularity: the durable-offset
	// checkpoint advances once per chunk. Default 1 MiB.
	StageChunkBytes int
	// RetainFor bounds how long a terminal job — its staging files and its
	// API entry — outlives completion; a janitor sweeps older jobs so a
	// long-running server's disk and job table stay bounded. Default 1h;
	// negative retains terminal jobs forever.
	RetainFor time.Duration
	// MaxBodyBytes caps a submission's request body; larger uploads are
	// rejected with 413 before they can fill the staging disk. Default
	// 4 GiB; negative disables the cap.
	MaxBodyBytes int64
	// Registry receives the server's metrics; nil means obs.Default().
	Registry *obs.Registry
	// Quality receives per-characteristic attribution from every job,
	// served on /debug/quality and exported as dq_score on /metrics; nil
	// builds a fresh 1-minute × 60-window set.
	Quality *obs.SeriesSet
}

// Server is the resident validation service. Create with NewServer, wire
// Handler into an http.Server, call Start, and Drain on shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	quality *obs.SeriesSet

	// slots bounds queued+running jobs (the admission valve); rate is the
	// per-client token bucket. Both are the webapp limiters, so their shed
	// and in-flight metrics keep the serving-layer names.
	slots *webapp.ConcurrencyLimiter
	rate  *webapp.RateLimiter

	queue    chan *Job
	quit     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	mu   sync.Mutex
	jobs map[string]*Job

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
	// dequeued and before the engine starts — the tests' synchronization
	// point for holding the pool busy deterministically.
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
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 2 * time.Second
	}
	if cfg.StageChunkBytes <= 0 {
		cfg.StageChunkBytes = 1 << 20
	}
	if cfg.RetainFor == 0 {
		cfg.RetainFor = time.Hour
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 4 << 30
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	quality := cfg.Quality
	if quality == nil {
		quality = obs.NewSeriesSet(time.Minute, 60)
	}

	s := &Server{
		cfg:      cfg,
		reg:      reg,
		quality:  quality,
		slots:    webapp.NewConcurrencyLimiter(cfg.MaxJobs),
		queue:    make(chan *Job, cfg.MaxJobs),
		quit:     make(chan struct{}),
		jobs:     make(map[string]*Job),
		enfCache: make(map[string]*dqruntime.Enforcer),
	}
	s.slots.Instrument(reg)
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
// it every finished job would pin its staged input, model, checkpoint and
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
		if j.terminal && !j.finished.IsZero() && j.finished.Before(cutoff) {
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
// first, the remaining running jobs are cancelled (their partial state is
// checkpointed, so they too resume after restart). Drain returns nil when
// every in-flight job completed within the deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	close(s.quit)
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
	// cleanly — just with partial, checkpointed results.
	s.cancelRunning()
	<-done
	return fmt.Errorf("dqserve: drain deadline exceeded; running jobs cancelled")
}

// cancelRunning cancels the context of every running job.
func (s *Server) cancelRunning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.cancelRun != nil {
			j.cancelRun()
		}
		j.mu.Unlock()
	}
}

// abort simulates a crash for the restart tests: it cancels every running
// job and stops the workers WITHOUT moving any job to a terminal state on
// disk — manifests keep saying "running"/"queued", exactly what a killed
// process leaves behind.
func (s *Server) abort() {
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		j.crashed = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
}

// Registry returns the metric registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Quality returns the windowed quality series backing /debug/quality.
func (s *Server) Quality() *obs.SeriesSet { return s.quality }

// Job returns a job by id, nil when unknown.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// newJobID mints a 12-hex-character job id.
func newJobID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
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

// enqueue registers the job and hands it to the worker pool. The queue
// channel's capacity equals the slot limiter's, and every channel space is
// matched by a held slot until the worker dequeues (even for jobs
// cancelled while queued — see Server.dequeued), so a send after a
// successful TryAcquire never blocks.
func (s *Server) enqueue(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	j.mu.Lock()
	j.inQueue = true
	j.mu.Unlock()
	s.queueDepth.Add(1)
	s.queue <- j
}

// dequeued marks j out of the queue channel and reports whether it still
// needs to run. A job cancelled while queued kept its admission slot so
// freed capacity could never outrun the channel space its ghost occupied;
// that slot is released here, once the ghost has actually left the
// channel.
func (s *Server) dequeued(j *Job) bool {
	j.mu.Lock()
	j.inQueue = false
	if !j.terminal {
		j.mu.Unlock()
		return true
	}
	release := j.slotHeld
	j.slotHeld = false
	j.mu.Unlock()
	if release {
		s.slots.Release()
	}
	return false
}

// worker executes queued jobs until the server drains. The quit check
// comes first so a draining server leaves queued jobs staged for the next
// boot instead of racing to start them.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.queueDepth.Add(-1)
			if s.dequeued(j) {
				s.runJob(j)
			}
		}
	}
}

// resumeScan reloads the staging directory: finished jobs become servable
// again (their reports are on disk), interrupted jobs with fully staged
// input are re-queued, and jobs whose upload the crash cut short are
// failed with their staged byte count — the chunk checkpoint tells us
// exactly how much input survived.
func (s *Server) resumeScan() error {
	entries, err := os.ReadDir(s.cfg.StagingDir)
	if err != nil {
		return fmt.Errorf("dqserve: scanning staging dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, manifestSuffix) {
			ids = append(ids, strings.TrimSuffix(name, manifestSuffix))
		}
	}
	sort.Strings(ids)
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
			// loadJob already marked it terminal; it is servable as-is.
			s.mu.Lock()
			s.jobs[j.ID] = j
			s.mu.Unlock()
		case StateQueued, StateRunning:
			ck, err := loadCheckpoint(s.cfg.StagingDir, id)
			if err != nil || !ck.StagedComplete {
				// The upload itself was interrupted: keep what the chunk
				// checkpoint guarantees is durable and fail the job — we
				// cannot validate input we never fully received.
				if err == nil {
					_ = os.Truncate(j.InputPath, ck.StagedBytes)
				}
				s.mu.Lock()
				s.jobs[j.ID] = j
				s.mu.Unlock()
				s.finishJob(j, StateFailed, nil, nil,
					fmt.Errorf("input staging interrupted by server restart (%d bytes staged)", ck.StagedBytes))
				continue
			}
			if !s.slots.TryAcquire() {
				s.mu.Lock()
				s.jobs[j.ID] = j
				s.mu.Unlock()
				s.finishJob(j, StateFailed, nil, nil,
					fmt.Errorf("job capacity exhausted while resuming after restart"))
				continue
			}
			j.slotHeld = true
			j.state = StateQueued
			if err := saveManifest(s.cfg.StagingDir, j); err != nil {
				obs.Logger("dqserve").Warn("persisting resumed job", "id", id, "err", err)
			}
			s.jobsResumed.Inc()
			s.enqueue(j)
		}
	}
	return nil
}
