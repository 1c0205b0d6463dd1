package dqserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; a server restart moves an interrupted running job back
// to queued (resume) because its input is staged and validation is
// deterministic.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobOptions are the per-job engine knobs, mirroring `dqwebre batch`
// flags one for one so the served report can be byte-identical to the
// CLI's. Durations travel as strings ("24h") and are validated at submit.
type JobOptions struct {
	Workers        int      `json:"workers,omitempty"`
	Exemplars      int      `json:"exemplars,omitempty"`
	Rows           bool     `json:"rows,omitempty"`
	DecodeErrors   int      `json:"decode_errors,omitempty"`
	Context        string   `json:"context,omitempty"`
	Unique         []string `json:"unique,omitempty"`
	UniqueMaxExact int      `json:"unique_max_exact,omitempty"`
	Timeliness     string   `json:"timeliness,omitempty"`
	Windows        []string `json:"windows,omitempty"`
	MaxAge         string   `json:"max_age,omitempty"`
	MaxSkew        string   `json:"max_skew,omitempty"`
}

// crossChecks assembles the dataset-level stateful checks the options ask
// for — the same construction cmdBatch performs from its flags.
func (o *JobOptions) crossChecks() ([]dqruntime.StatefulCheck, error) {
	var cross []dqruntime.StatefulCheck
	if len(o.Unique) > 0 {
		cross = append(cross, dqruntime.UniquenessCheck{
			Fields:   o.Unique,
			MaxExact: o.UniqueMaxExact,
		})
	}
	if o.Timeliness != "" {
		windows := o.Windows
		if len(windows) == 0 {
			windows = []string{"24h", "168h"}
		}
		var wins []time.Duration
		for _, w := range windows {
			d, err := time.ParseDuration(w)
			if err != nil {
				return nil, fmt.Errorf("bad windows entry %q: %w", w, err)
			}
			wins = append(wins, d)
		}
		var maxAge, maxSkew time.Duration
		var err error
		if o.MaxAge != "" {
			if maxAge, err = time.ParseDuration(o.MaxAge); err != nil {
				return nil, fmt.Errorf("bad max_age %q: %w", o.MaxAge, err)
			}
		}
		if o.MaxSkew != "" {
			if maxSkew, err = time.ParseDuration(o.MaxSkew); err != nil {
				return nil, fmt.Errorf("bad max_skew %q: %w", o.MaxSkew, err)
			}
		}
		cross = append(cross, dqruntime.TimelinessCheck{
			Field:   o.Timeliness,
			Windows: wins,
			MaxAge:  maxAge,
			MaxSkew: maxSkew,
		})
	}
	return cross, nil
}

// Job is one validation job: a staged input stream plus the model and
// options it runs under. All mutable fields are guarded by mu; progress is
// written by the engine's reader goroutine and read by anyone.
type Job struct {
	ID         string
	ModelRef   string // user-facing reference ("inline" for staged models)
	ModelPath  string // resolved file the enforcer loads
	Format     string // "ndjson" or "csv"
	Opts       JobOptions
	InputPath  string
	InputBytes int64
	Created    time.Time

	progress dqbatch.Progress
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu         sync.Mutex
	state      string
	errMsg     string
	started    time.Time
	finished   time.Time
	result     *dqbatch.Result
	reportJSON []byte
	cancelRun  context.CancelFunc
	slotHeld   bool
	// inQueue is true while the job occupies a space in the queue channel.
	// A job cancelled while queued keeps its admission slot until a worker
	// drains its ghost, so freed capacity can never outrun channel space.
	inQueue  bool
	terminal bool
	// crashed marks an abort()-simulated kill: the runner must leave the
	// on-disk state untouched, as a SIGKILL would.
	crashed bool
}

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's (possibly partial) result; nil before the
// engine produced one.
func (j *Job) Result() *dqbatch.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Records returns how many input records the job has validated so far.
func (j *Job) Records() int64 { return j.progress.Records() }

// statusDoc is the GET /v1/jobs/{id} body.
type statusDoc struct {
	ID          string     `json:"id"`
	Model       string     `json:"model"`
	Format      string     `json:"format"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	InputBytes  int64      `json:"input_bytes"`
	RecordsRead int64      `json:"records_read"`
	ByteOffset  int64      `json:"byte_offset"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status() statusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := statusDoc{
		ID:          j.ID,
		Model:       j.ModelRef,
		Format:      j.Format,
		State:       j.state,
		Error:       j.errMsg,
		InputBytes:  j.InputBytes,
		RecordsRead: j.progress.Records(),
		ByteOffset:  j.progress.Bytes(),
		Created:     j.Created,
	}
	if !j.started.IsZero() {
		t := j.started
		doc.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		doc.Finished = &t
	}
	return doc
}

// Per-job staging files, all named <id><suffix> inside StagingDir.
const (
	manifestSuffix   = ".job"
	inputSuffix      = ".input"
	modelSuffix      = ".model"
	checkpointSuffix = ".ckpt"
	reportSuffix     = ".report.json"
)

// modelRefInline is the user-facing model reference of a job that shipped
// its own model in the multipart body. Inline model files are per-job, so
// their enforcers are never cached.
const modelRefInline = "inline"

func stagingPath(dir, id, suffix string) string {
	return filepath.Join(dir, id+suffix)
}

// manifest is the persisted form of a Job.
type manifest struct {
	ID         string     `json:"id"`
	ModelRef   string     `json:"model"`
	ModelPath  string     `json:"model_path"`
	Format     string     `json:"format"`
	Options    JobOptions `json:"options"`
	State      string     `json:"state"`
	Error      string     `json:"error,omitempty"`
	InputBytes int64      `json:"input_bytes"`
	Created    time.Time  `json:"created"`
	Started    time.Time  `json:"started"`
	Finished   time.Time  `json:"finished"`
}

// checkpoint is the persisted progress of a job: how much input is durably
// staged (advanced chunk by chunk during the upload) and how far
// validation has read (advanced on the checkpoint interval while the job
// runs). Offsets are record-aligned — they come from the sources'
// ByteOffset, not raw reader position.
type checkpoint struct {
	StagedBytes    int64 `json:"staged_bytes"`
	StagedComplete bool  `json:"staged_complete"`
	Records        int64 `json:"records_read"`
	ByteOffset     int64 `json:"byte_offset"`
}

// writeJSONAtomic persists v at path via tmp+fsync+rename, then syncs the
// directory, so readers (and the resume scan after a crash or power loss)
// never observe a torn, empty or missing document — the same durability
// the staged input itself gets from stageTo.
func writeJSONAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

func saveManifest(dir string, j *Job) error {
	j.mu.Lock()
	m := manifest{
		ID:         j.ID,
		ModelRef:   j.ModelRef,
		ModelPath:  j.ModelPath,
		Format:     j.Format,
		Options:    j.Opts,
		State:      j.state,
		Error:      j.errMsg,
		InputBytes: j.InputBytes,
		Created:    j.Created,
		Started:    j.started,
		Finished:   j.finished,
	}
	j.mu.Unlock()
	return writeJSONAtomic(stagingPath(dir, j.ID, manifestSuffix), m)
}

func saveCheckpoint(dir, id string, ck checkpoint) error {
	return writeJSONAtomic(stagingPath(dir, id, checkpointSuffix), ck)
}

func loadCheckpoint(dir, id string) (checkpoint, error) {
	var ck checkpoint
	data, err := os.ReadFile(stagingPath(dir, id, checkpointSuffix))
	if err != nil {
		return ck, err
	}
	return ck, json.Unmarshal(data, &ck)
}

// loadJob reconstructs a job from its staged manifest (and report, when
// one was persisted).
func loadJob(dir, id string) (*Job, error) {
	data, err := os.ReadFile(stagingPath(dir, id, manifestSuffix))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", id, err)
	}
	j := &Job{
		ID:         m.ID,
		ModelRef:   m.ModelRef,
		ModelPath:  m.ModelPath,
		Format:     m.Format,
		Opts:       m.Options,
		InputPath:  stagingPath(dir, id, inputSuffix),
		InputBytes: m.InputBytes,
		Created:    m.Created,
		done:       make(chan struct{}),
		state:      m.State,
		errMsg:     m.Error,
		started:    m.Started,
		finished:   m.Finished,
	}
	if m.State == StateDone || m.State == StateFailed || m.State == StateCancelled {
		j.terminal = true
		close(j.done)
	}
	if report, err := os.ReadFile(stagingPath(dir, id, reportSuffix)); err == nil {
		j.reportJSON = report
		var res dqbatch.Result
		if err := json.Unmarshal(report, &res); err == nil {
			// Duration is excluded from the JSON contract; rebuild it so a
			// restored job's text rendering still shows the wall clock.
			res.Duration = time.Duration(res.Seconds * float64(time.Second))
			j.result = &res
		}
	}
	return j, nil
}

// storageError marks a server-side staging fault (creating, writing or
// syncing staging files) as distinct from a request-side failure, so the
// submit handler can answer 5xx instead of blaming the client.
type storageError struct{ err error }

func (e storageError) Error() string { return e.err.Error() }
func (e storageError) Unwrap() error { return e.err }

// stageTo copies r to path, calling onChunk with the durable offset every
// chunkBytes of staged input (the file is synced first, so the offset
// never overstates what a crash would preserve). Only a clean io.EOF ends
// the copy successfully: net/http yields io.ErrUnexpectedEOF when a
// client disconnects mid-body on a Content-Length request (multipart does
// the same for a truncated part), and that MUST fail the submission — a
// truncated upload can never be sealed and validated as if it were
// complete. File-side faults come back wrapped in storageError; reader
// errors propagate as-is. Returns the bytes staged.
func stageTo(path string, r io.Reader, chunkBytes int, onChunk func(offset int64) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, storageError{err}
	}
	buf := make([]byte, chunkBytes)
	var off, sinceSync int64
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if _, werr := f.Write(buf[:n]); werr != nil {
				f.Close()
				return off, storageError{werr}
			}
			off += int64(n)
			sinceSync += int64(n)
			if onChunk != nil && sinceSync >= int64(chunkBytes) {
				sinceSync = 0
				if serr := f.Sync(); serr != nil {
					f.Close()
					return off, storageError{serr}
				}
				if cerr := onChunk(off); cerr != nil {
					f.Close()
					return off, cerr
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			f.Close()
			return off, rerr
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return off, storageError{err}
	}
	if err := f.Close(); err != nil {
		return off, storageError{err}
	}
	return off, nil
}

// runJob executes one dequeued job end to end: load the (cached)
// enforcer, stream the staged input through the batch engine with
// progress checkpoints, and land the job in a terminal state with its
// report rendered through the same dqbatch.RenderReport path the CLI
// uses.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.started = time.Now()
	j.cancelRun = cancel
	j.mu.Unlock()
	defer cancel()
	if err := saveManifest(s.cfg.StagingDir, j); err != nil {
		obs.Logger("dqserve").Warn("persisting running state", "id", j.ID, "err", err)
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	if s.beforeRun != nil {
		s.beforeRun(j)
	}

	ctx, span := obs.StartSpan(ctx, "dqserve.job")
	span.SetAttr("job", j.ID)
	span.SetAttr("model", j.ModelRef)
	defer span.End()

	enf, err := s.enforcer(j.ModelPath, j.ModelRef != modelRefInline)
	if err != nil {
		span.Fail(err)
		s.finishJob(j, StateFailed, nil, nil, fmt.Errorf("loading model: %w", err))
		return
	}
	cross, err := j.Opts.crossChecks()
	if err != nil {
		span.Fail(err)
		s.finishJob(j, StateFailed, nil, nil, err)
		return
	}
	// Staged inputs are always regular files, so submissions and resumes
	// alike pick up the memory-mapped fast path (and its exact byte-offset
	// progress) from the shared constructor; non-mmap platforms fall back
	// to the streaming decoders inside OpenFileSource.
	src, closeIn, err := dqbatch.OpenFileSource(j.InputPath, j.Format)
	if err != nil {
		span.Fail(err)
		s.finishJob(j, StateFailed, nil, nil, fmt.Errorf("opening staged input: %w", err))
		return
	}
	defer closeIn()
	src = dqbatch.CountSource(src, &j.progress)

	// Progress checkpoints: the job's record/offset position lands on disk
	// every interval, so a status probe after a crash-restart can say how
	// far the dead run got before the resume re-runs it.
	stopCk := make(chan struct{})
	ckDone := make(chan struct{})
	go func() {
		defer close(ckDone)
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		for {
			select {
			case <-stopCk:
				return
			case <-t.C:
				_ = saveCheckpoint(s.cfg.StagingDir, j.ID, checkpoint{
					StagedBytes:    j.InputBytes,
					StagedComplete: true,
					Records:        j.progress.Records(),
					ByteOffset:     j.progress.Bytes(),
				})
			}
		}
	}()

	qualityCtx := j.Opts.Context
	if qualityCtx == "" {
		base := filepath.Base(j.ModelPath)
		qualityCtx = strings.TrimSuffix(base, filepath.Ext(base))
	}
	res, runErr := dqbatch.Run(ctx, enf.Validator(), src, dqbatch.Options{
		Workers:         j.Opts.Workers,
		MaxExemplars:    j.Opts.Exemplars,
		ForceRows:       j.Opts.Rows,
		MaxDecodeErrors: j.Opts.DecodeErrors,
		Registry:        s.reg,
		Quality:         s.quality,
		Context:         qualityCtx,
		CrossRecord:     cross,
	})
	close(stopCk)
	<-ckDone

	j.mu.Lock()
	crashed := j.crashed
	j.mu.Unlock()
	if crashed {
		// Simulated kill: leave the on-disk state mid-flight, as a real
		// crash would, so the restart tests exercise the resume path.
		return
	}

	span.SetAttr("records", int(res.Records))
	switch {
	case runErr == nil:
		s.finishJob(j, StateDone, res, nil, nil)
	case errors.Is(runErr, context.Canceled):
		// The partial report is first-class: rendered and persisted exactly
		// like the CLI's SIGINT partial report.
		s.finishJob(j, StateCancelled, res, nil, runErr)
	default:
		span.Fail(runErr)
		s.finishJob(j, StateFailed, res, nil, runErr)
	}
}

// finishJob lands j in a terminal state exactly once: renders and persists
// the report (when a result exists), persists the manifest and final
// checkpoint, releases the admission slot and closes Done.
func (s *Server) finishJob(j *Job, state string, res *dqbatch.Result, reportJSON []byte, cause error) {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return
	}
	j.terminal = true
	j.state = state
	j.finished = time.Now()
	if cause != nil && !errors.Is(cause, context.Canceled) {
		j.errMsg = cause.Error()
	}
	if res != nil {
		j.result = res
		if reportJSON == nil {
			var buf bytes.Buffer
			if err := dqbatch.RenderReport(&buf, res, "json"); err == nil {
				reportJSON = buf.Bytes()
			}
		}
		j.reportJSON = reportJSON
	}
	var release bool
	if j.slotHeld && !j.inQueue {
		// A job still sitting in the queue channel keeps its slot: freeing
		// it now would admit a replacement submission whose enqueue could
		// block on the channel space the ghost still occupies. The worker
		// releases the slot when it drains the ghost (Server.dequeued).
		j.slotHeld = false
		release = true
	}
	j.mu.Unlock()

	if reportJSON != nil {
		if err := os.WriteFile(stagingPath(s.cfg.StagingDir, j.ID, reportSuffix), reportJSON, 0o644); err != nil {
			obs.Logger("dqserve").Warn("persisting report", "id", j.ID, "err", err)
		}
	}
	if res != nil {
		_ = saveCheckpoint(s.cfg.StagingDir, j.ID, checkpoint{
			StagedBytes:    j.InputBytes,
			StagedComplete: true,
			Records:        j.progress.Records(),
			ByteOffset:     j.progress.Bytes(),
		})
	}
	if err := saveManifest(s.cfg.StagingDir, j); err != nil {
		obs.Logger("dqserve").Warn("persisting terminal state", "id", j.ID, "err", err)
	}
	switch state {
	case StateDone:
		s.jobsCompleted.Inc()
	case StateFailed:
		s.jobsFailed.Inc()
	case StateCancelled:
		s.jobsCancelled.Inc()
	}
	if release {
		s.slots.Release()
	}
	close(j.done)
}
