package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/dqserve"
	"github.com/modeldriven/dqwebre/internal/obs"
)

const (
	jobBodies     = 4      // distinct job bodies, submitted round-robin
	jobRecords    = 20_000 // records per job body
	jobSubmitters = 2      // closed-loop submitters
	// segmentLength is how long the submitters run in one segment, the
	// stretch whose stolen vCPU share corrects its jobs' times.
	segmentLength = 2 * time.Second
)

// jobSpec shapes each job body: the uniqueness key repeats on a planted
// number of records.
var jobSpec = recordSpec{Records: jobRecords, Malformed: 40, Missing: 600, OutOfRange: 400,
	Emails: jobRecords - 700, Papers: 1000}

// timingKeys are the report fields that differ run to run; the oracle
// compares reports with them stripped.
var timingKeys = []string{"seconds", "records_per_sec", "latency_p50_seconds", "latency_p99_seconds"}

// serveWorkload submits NDJSON jobs to an in-process dqserve.Server and
// fetches each report once the job is done.
type serveWorkload struct {
	skew    int64
	workers int

	dir, model string
	bodies     [][]byte
	want       truth
	reports    [][]byte // expected reports, timing keys stripped

	setups   int
	srv      *dqserve.Server
	handler  http.Handler
	reg      *obs.Registry
	submitQS string
}

func (s *serveWorkload) prepare(dir string, seed int64, sum hash.Hash) error {
	s.dir = dir
	s.workers = runtime.NumCPU()
	s.submitQS = fmt.Sprintf("/v1/jobs?unique=email_address&workers=%d", s.workers)
	rng := rand.New(rand.NewSource(seed))
	var err error
	if s.model, err = writeModel(dir, sum); err != nil {
		return err
	}
	enf, err := cli.LoadEnforcer(s.model)
	if err != nil {
		return err
	}
	s.want = jobSpec.truth()
	for k := 0; k < jobBodies; k++ {
		var body bytes.Buffer
		if err := writeRecords(&body, jobSpec, rng); err != nil {
			return err
		}
		sum.Write(body.Bytes())
		// The oracle's report: the same body through a direct engine run,
		// rendered by the one report path the CLI and the server share.
		res, err := s.direct(enf, body.Bytes())
		if err != nil {
			return err
		}
		var rep bytes.Buffer
		if err := dqbatch.RenderReport(&rep, res, "json"); err != nil {
			return err
		}
		canon, err := s.checkReport(rep.Bytes())
		if err != nil {
			return fmt.Errorf("direct run of job body %d: %w", k, err)
		}
		s.bodies = append(s.bodies, body.Bytes())
		s.reports = append(s.reports, canon)
	}
	s.want.Records += s.skew
	return nil
}

// direct runs one job body through the engine with the job's options.
func (s *serveWorkload) direct(enf *dqruntime.Enforcer, body []byte) (*dqbatch.Result, error) {
	return dqbatch.Run(context.Background(), enf.Validator(), dqbatch.NewMmapNDJSONSource(body), dqbatch.Options{
		Workers:     s.workers,
		CrossRecord: []dqruntime.StatefulCheck{dqruntime.UniquenessCheck{Fields: []string{"email_address"}}},
	})
}

// checkReport compares a JSON report's counts with the ground truth and
// returns it re-encoded without timing keys and with every float rounded
// to 12 significant digits: score sums are merged across worker shards in
// whatever order the shards finish, so at more than one worker a mean
// score can differ in its last bit from run to run.
func (s *serveWorkload) checkReport(data []byte) ([]byte, error) {
	var doc struct {
		Records, Passed, Failed, Malformed int64
		CrossRecords                       []dqruntime.CrossFinding `json:"cross_records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	w := s.want
	if doc.Records != w.Records || doc.Passed != w.Passed || doc.Failed != w.Failed || doc.Malformed != w.Malformed {
		return nil, fmt.Errorf("records/passed/failed/malformed %d/%d/%d/%d, want %d/%d/%d/%d",
			doc.Records, doc.Passed, doc.Failed, doc.Malformed, w.Records, w.Passed, w.Failed, w.Malformed)
	}
	if len(doc.CrossRecords) != 1 || doc.CrossRecords[0].Violations != w.Duplicates || doc.CrossRecords[0].Approximate {
		return nil, fmt.Errorf("uniqueness findings %+v, want %d exact violations", doc.CrossRecords, w.Duplicates)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	for _, k := range timingKeys {
		delete(m, k)
	}
	return json.Marshal(roundFloats(m))
}

// roundFloats rounds every number in a decoded JSON tree to 12
// significant digits.
func roundFloats(v any) any {
	switch t := v.(type) {
	case float64:
		r, _ := strconv.ParseFloat(strconv.FormatFloat(t, 'g', 12, 64), 64)
		return r
	case map[string]any:
		for k, x := range t {
			t[k] = roundFloats(x)
		}
	case []any:
		for i, x := range t {
			t[i] = roundFloats(x)
		}
	}
	return v
}

// setup is model file → ready to serve: LoadEnforcer on the model, then
// NewServer + Start on a fresh staging directory inside the benchmark's
// own output directory. The server would load the model lazily on its
// first job; handing it the loaded enforcer moves that cost into set-up.
func (s *serveWorkload) setup() (func(), error) {
	s.setups++
	staging := filepath.Join(s.dir, fmt.Sprintf("staging-%d", s.setups))
	enf, err := cli.LoadEnforcer(s.model)
	if err != nil {
		return nil, err
	}
	load := func(path string) (*dqruntime.Enforcer, error) {
		if path == s.model {
			return enf, nil
		}
		return cli.LoadEnforcer(path)
	}
	reg := obs.NewRegistry()
	srv, err := dqserve.NewServer(dqserve.Config{
		StagingDir:   staging,
		LoadEnforcer: load,
		DefaultModel: s.model,
		JobWorkers:   1,
		RetainFor:    2 * time.Second,
		Registry:     reg,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	s.srv, s.handler, s.reg = srv, srv.Handler(), reg
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
		}
		// The staging directory stays until the run's work directory is
		// removed at exit, so no file deletion competes with later set-ups.
	}, nil
}

func (s *serveWorkload) run(p *phase, deadline time.Time, tr *tracer) load {
	var total load
	for first := true; first || time.Now().Before(deadline); first = false {
		end := time.Now().Add(segmentLength)
		if end.After(deadline) {
			end = deadline
		}
		total.add(s.segment(p, end, tr))
	}
	return total
}

// segment runs both submitters until end and waits for their last jobs,
// so the next segment starts from an idle server and a collected heap.
func (s *serveWorkload) segment(p *phase, end time.Time, tr *tracer) load {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total load
		lat   []sample
	)
	p.begin()
	for c := 0; c < jobSubmitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var l load
			var mine []sample
			for k := c; k == c || time.Now().Before(end); k += jobSubmitters {
				// A job spans tens of clock ticks, enough to measure the
				// steal it suffered itself; the slowest jobs are the ones
				// that suffered most.
				ticks0 := readTicks()
				t0 := time.Now()
				err := s.job(k%jobBodies, tr)
				mine = append(mine, sample{ms(time.Since(t0)), stolenSince(ticks0)})
				l.attempted++
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: job: %v\n", err)
					l.failed++
					continue
				}
				l.ops += int64(jobSpec.Records)
			}
			mu.Lock()
			total.add(l)
			lat = append(lat, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall, cpu, stolen := p.end()
	total.segs = []segment{{ops: total.ops, wall: wall, cpu: cpu, lat: lat, stolen: stolen}}
	return total
}

// job is one submitter's round trip: POST the body, wait for the job to
// finish, GET the report and compare it with the direct run's.
func (s *serveWorkload) job(k int, tr *tracer) error {
	root := tr.id()
	t0 := time.Now()
	req := httptest.NewRequest(http.MethodPost, s.submitQS, bytes.NewReader(s.bodies[k]))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	t1 := time.Now()
	tr.child("dqserve.submit", root, t0, t1)
	if rec.Code != http.StatusAccepted {
		return fmt.Errorf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}
	j := s.srv.Job(accepted.ID)
	if j == nil {
		return fmt.Errorf("job %s unknown after submit", accepted.ID)
	}
	<-j.Done()
	t2 := time.Now()
	tr.child("dqserve.run", root, t1, t2)
	rec = httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+accepted.ID+"/report", nil))
	t3 := time.Now()
	tr.child("dqserve.report", root, t2, t3)
	tr.add(root, "dqserve.job", 0, t0, t3)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("report: %d %s", rec.Code, rec.Body.String())
	}
	got, err := s.checkReport(rec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("job %s: %w", accepted.ID, err)
	}
	if !bytes.Equal(got, s.reports[k]) {
		return fmt.Errorf("job %s: served report differs from the direct run's", accepted.ID)
	}
	return nil
}

func (s *serveWorkload) layers(tr *tracer, out *metricSet) bool {
	ok := loadLayers(s.model, out)
	enf, err := cli.LoadEnforcer(s.model)
	mustf(err, "loading %s", s.model)
	ing := decompose(s.bodies[0], enf.Validator(), false, nil, s.want)
	ok = ok && ing.ok

	var runs, renders []float64
	var rep bytes.Buffer
	for i := 0; i < 5; i++ {
		var res *dqbatch.Result
		runs = append(runs, ms(timeCall(func() { res, err = s.direct(enf, s.bodies[0]) })))
		mustf(err, "direct run")
		rep.Reset()
		renders = append(renders, ms(timeCall(func() { err = dqbatch.RenderReport(&rep, res, "json") })))
		mustf(err, "rendering")
	}
	engine := median(runs)
	ing.report(out, engine)
	out.set("dqbatch.run_ms", engine, "ms")
	out.set("dqbatch.render_ms", median(renders), "ms")
	out.set("dqbatch.report_bytes", float64(rep.Len()), "bytes")

	runMs := median(tr.durations("dqserve.run", time.Millisecond))
	out.set("dqserve.submit_ms", median(tr.durations("dqserve.submit", time.Millisecond)), "ms")
	out.set("dqserve.run_ms", runMs, "ms")
	out.set("dqserve.report_ms", median(tr.durations("dqserve.report", time.Millisecond)), "ms")
	out.set("dqserve.engine_share", engine/runMs, "ratio")
	const help = "Validation jobs by lifecycle state transition"
	state := func(st string) float64 {
		return float64(s.reg.Counter("dqserve_jobs_total", help, obs.Labels{"state": st}).Value())
	}
	out.set("dqserve.shed", state("shed_queue")+state("shed_rate"), "count")
	out.set("dqserve.failed", state("failed"), "count")
	return ok
}
