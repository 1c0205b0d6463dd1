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
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states. Running is never persisted, so a server restart finds
// an interrupted job's manifest still queued and runs it again: its input
// is staged and validation is deterministic.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether state is one a job never leaves.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobOptions are the per-job engine knobs, mirroring `dqwebre batch`
// flags one for one so the served report can be byte-identical to the
// CLI's; the cross-record checks' options are the CLI's own
// dqbatch.CrossOptions, so both front ends build those checks in one
// place. Durations travel as strings ("24h"). engineOptions validates
// them at submit and again before a resumed job runs; where the CLI
// accepts any value, it bounds Workers to [0, max(64, NumCPU)] and
// UniqueMaxExact to [0, dqruntime.DefaultMaxExact].
type JobOptions struct {
	Workers      int    `json:"workers,omitempty"`
	Exemplars    int    `json:"exemplars,omitempty"`
	DecodeErrors int    `json:"decode_errors,omitempty"`
	Context      string `json:"context,omitempty"`
	dqbatch.CrossOptions
}

// engineOptions validates the options and builds the engine options they
// ask for — the same construction cmdBatch performs from its flags. The
// caller adds the server's registry, quality series and context label.
func (o *JobOptions) engineOptions() (dqbatch.Options, error) {
	// Each worker costs a goroutine, a chunk, a shard and per-check states
	// before a record is read, and the exact uniqueness table grows with a
	// job's distinct keys: a client may lower either cap but never lift it.
	if limit := max(64, runtime.NumCPU()); o.Workers < 0 || o.Workers > limit {
		return dqbatch.Options{}, fmt.Errorf("workers %d outside [0, %d]", o.Workers, limit)
	}
	if o.UniqueMaxExact < 0 || o.UniqueMaxExact > dqruntime.DefaultMaxExact {
		return dqbatch.Options{}, fmt.Errorf("unique_max_exact %d outside [0, %d]", o.UniqueMaxExact, dqruntime.DefaultMaxExact)
	}
	cross, err := o.Checks()
	if err != nil {
		return dqbatch.Options{}, err
	}
	return dqbatch.Options{
		Workers:         o.Workers,
		MaxExemplars:    o.Exemplars,
		MaxDecodeErrors: o.DecodeErrors,
		CrossRecord:     cross,
	}, nil
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
	// crashed marks a job interrupted by a drain deadline (or the tests'
	// Abort): the runner must leave the on-disk state untouched, as a
	// SIGKILL would, so the next boot resumes the job.
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
	manifestSuffix = ".job"
	inputSuffix    = ".input"
	modelSuffix    = ".model"
	reportSuffix   = ".report.json"
	tmpSuffix      = ".tmp" // what writeFileAtomic writes to before its rename
)

// modelRefInline is the user-facing model reference of a job that shipped
// its own model in the multipart body. Inline model files are per-job, so
// their enforcers are never cached.
const modelRefInline = "inline"

func stagingPath(dir, id, suffix string) string {
	return filepath.Join(dir, id+suffix)
}

// manifest is the persisted form of a Job; it is written only once the
// input is staged, so its existence seals the job. A terminal manifest
// also carries the run's final progress.
type manifest struct {
	ID          string     `json:"id"`
	ModelRef    string     `json:"model"`
	ModelPath   string     `json:"model_path"`
	Format      string     `json:"format"`
	Options     JobOptions `json:"options"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	InputBytes  int64      `json:"input_bytes"`
	RecordsRead int64      `json:"records_read,omitempty"`
	ByteOffset  int64      `json:"byte_offset,omitempty"`
	Created     time.Time  `json:"created"`
	Started     time.Time  `json:"started"`
	Finished    time.Time  `json:"finished"`
}

// writeFileAtomic persists data at path via tmp+fsync+rename, then syncs
// the directory, so readers (and the resume scan after a crash or power
// loss) never observe a torn, empty or missing document. A crash before
// the rename leaves only the .tmp file, which the restart scan removes.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; closing twice is harmless
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
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
		ID:          j.ID,
		ModelRef:    j.ModelRef,
		ModelPath:   j.ModelPath,
		Format:      j.Format,
		Options:     j.Opts,
		State:       j.state,
		Error:       j.errMsg,
		InputBytes:  j.InputBytes,
		RecordsRead: j.progress.Records(),
		ByteOffset:  j.progress.Bytes(),
		Created:     j.Created,
		Started:     j.started,
		Finished:    j.finished,
	}
	j.mu.Unlock()
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(stagingPath(dir, j.ID, manifestSuffix), data)
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
	j.progress.Restore(m.RecordsRead, m.ByteOffset)
	if terminal(m.State) {
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

// stagingFile marks its write faults as storageError, so the error
// io.Copy returns says which side of the copy failed.
type stagingFile struct{ f *os.File }

func (w stagingFile) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if err != nil {
		err = storageError{err}
	}
	return n, err
}

// stageTo copies r to path and syncs the file once the copy ends. Only a
// clean io.EOF ends the copy successfully (io.Copy's contract): net/http
// yields io.ErrUnexpectedEOF when a client disconnects mid-body on a
// Content-Length request (multipart does the same for a truncated part),
// and that MUST fail the submission — a truncated upload can never be
// sealed and validated as if it were complete. File-side faults come back
// wrapped in storageError; reader errors propagate as-is. Returns the
// bytes staged.
func stageTo(path string, r io.Reader) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, storageError{err}
	}
	defer f.Close() // for the error paths; closing twice is harmless
	n, err := io.Copy(stagingFile{f}, r)
	if err != nil {
		return n, err
	}
	if err := f.Sync(); err != nil {
		return n, storageError{err}
	}
	if err := f.Close(); err != nil {
		return n, storageError{err}
	}
	return n, nil
}

// runJob executes one job that next marked running, under the context
// whose cancel is the job's cancelRun: load the (cached) enforcer, stream
// the staged input through the batch engine, and land the job in a
// terminal state with its report rendered through the same
// dqbatch.RenderReport path the CLI uses. The running state stays in
// memory: until finishJob, the manifest on disk says queued.
func (s *Server) runJob(ctx context.Context, j *Job) {
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
		s.finishJob(j, StateFailed, nil, fmt.Errorf("loading model: %w", err))
		return
	}
	opts, err := j.Opts.engineOptions()
	if err != nil {
		span.Fail(err)
		s.finishJob(j, StateFailed, nil, err)
		return
	}
	// Staged inputs are regular files, read by the shared constructor
	// through the streaming sources the CLI uses, so submissions and
	// resumes alike report exact byte-offset progress.
	src, closeIn, err := dqbatch.OpenFileSource(j.InputPath, j.Format)
	if err != nil {
		span.Fail(err)
		s.finishJob(j, StateFailed, nil, fmt.Errorf("opening staged input: %w", err))
		return
	}
	defer closeIn()
	src = dqbatch.CountSource(src, &j.progress)

	opts.Registry, opts.Quality, opts.Context = s.reg, s.quality, j.Opts.Context
	if opts.Context == "" {
		base := filepath.Base(j.ModelPath)
		opts.Context = strings.TrimSuffix(base, filepath.Ext(base))
	}
	res, runErr := dqbatch.Run(ctx, enf.Validator(), src, opts)

	j.mu.Lock()
	crashed := j.crashed
	j.mu.Unlock()
	if crashed {
		// Simulated kill or drain deadline: leave the queued manifest as a
		// real crash would, so the next boot resumes the job.
		return
	}

	span.SetAttr("records", int(res.Records))
	switch {
	case runErr == nil:
		s.finishJob(j, StateDone, res, nil)
	case errors.Is(runErr, context.Canceled):
		// The partial report is first-class: rendered and persisted exactly
		// like the CLI's SIGINT partial report.
		s.finishJob(j, StateCancelled, res, runErr)
	default:
		span.Fail(runErr)
		s.finishJob(j, StateFailed, res, runErr)
	}
}

// finishJob lands j in a terminal state: renders and persists the report
// (when a result exists) before the terminal manifest, so a crash between
// the two leaves the job queued, not done without its report; then it
// gives back the job's admission and closes Done. Each job is finished
// once, by the worker that took it off the queue or by the cancel that
// removed it from the queue.
func (s *Server) finishJob(j *Job, state string, res *dqbatch.Result, cause error) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	if cause != nil && !errors.Is(cause, context.Canceled) {
		j.errMsg = cause.Error()
	}
	var report []byte
	if res != nil {
		j.result = res
		var buf bytes.Buffer
		if err := dqbatch.RenderReport(&buf, res, "json"); err == nil {
			report = buf.Bytes()
		}
		j.reportJSON = report
	}
	j.mu.Unlock()

	if report != nil {
		if err := writeFileAtomic(stagingPath(s.cfg.StagingDir, j.ID, reportSuffix), report); err != nil {
			obs.Logger("dqserve").Warn("persisting report", "id", j.ID, "err", err)
		}
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
	s.release()
	close(j.done)
}
