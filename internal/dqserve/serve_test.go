// Behavioural tests for the dqserve job API. They live in the external
// test package so they can drive the server through internal/cli's model
// loader (the same wiring `dqwebre serve` uses) and compare its reports
// against `dqwebre batch` — the golden-parity contract.
package dqserve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/dqserve"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/xmi"
)

// writeDemoModel marshals the case-study requirements model to dir.
func writeDemoModel(t *testing.T, dir string) string {
	t.Helper()
	e, err := easychair.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	data, err := xmi.Marshal(e.Model.Model)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "easychair.xml")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// makeNDJSON builds n review records: evaluations span -4..4 so some fail
// the [-3,3] precision check, every 11th repeats an email address (for
// the uniqueness check), and every 97th line is malformed.
func makeNDJSON(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%97 == 96 {
			b.WriteString("not json\n")
			continue
		}
		email := fmt.Sprintf("r%d@conf.org", i)
		if i%11 == 10 {
			email = "dup@conf.org"
		}
		fmt.Fprintf(&b,
			`{"first_name":"R%d","last_name":"Vee","email_address":"%s","overall_evaluation":%d,"reviewer_confidence":%d}`+"\n",
			i, email, i%9-4, i%5+1)
	}
	return b.String()
}

// testConfig returns a server config against a fresh staging dir and the
// demo model.
func testConfig(t *testing.T) dqserve.Config {
	t.Helper()
	dir := t.TempDir()
	model := writeDemoModel(t, dir)
	return dqserve.Config{
		StagingDir:   filepath.Join(dir, "staging"),
		LoadEnforcer: cli.LoadEnforcer,
		DefaultModel: model,
		ModelDir:     filepath.Dir(model),
		Registry:     obs.NewRegistry(),
	}
}

// startServer builds, starts and exposes a server over httptest.
func startServer(t *testing.T, cfg dqserve.Config) (*dqserve.Server, *httptest.Server) {
	t.Helper()
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs an NDJSON body and returns the response and decoded id
// (when 202).
func submit(t *testing.T, ts *httptest.Server, query, body string) (int, string) {
	t.Helper()
	return submitAs(t, ts, query, "application/x-ndjson", body)
}

// submitAs is submit with the given Content-Type.
func submitAs(t *testing.T, ts *httptest.Server, query, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, ""
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		t.Fatalf("submit response not a job: %s", data)
	}
	return resp.StatusCode, acc.ID
}

// get fetches a path and returns status + body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data
}

// waitDone blocks until the job terminates.
func waitDone(t *testing.T, s *dqserve.Server, id string) *dqserve.Job {
	t.Helper()
	j := s.Job(id)
	if j == nil {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not terminate", id)
	}
	return j
}

// normalizeReport parses a report and re-renders it with timing fields
// zeroed, so two runs compare on content alone.
func normalizeReport(t *testing.T, data []byte) string {
	t.Helper()
	var res dqbatch.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("report is not a Result: %v\n%s", err, data)
	}
	res.Seconds, res.RecordsPerSec, res.LatencyP50, res.LatencyP99 = 0, 0, 0, 0
	var buf bytes.Buffer
	if err := dqbatch.RenderReport(&buf, &res, "json"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServerCLIReportParity is the golden-parity contract: the same
// records validated through the job API and through `dqwebre batch` yield
// byte-identical JSON reports (after zeroing timing), across worker
// counts and exemplar caps, cross-record findings and decode errors
// included.
func TestServerCLIReportParity(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(2000)
	recFile := filepath.Join(t.TempDir(), "records.ndjson")
	if err := os.WriteFile(recFile, []byte(records), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		for _, exemplars := range []int{3, 1} {
			name := fmt.Sprintf("workers=%d exemplars=%d", workers, exemplars)

			query := fmt.Sprintf("?workers=%d&unique=email_address", workers)
			cliArgs := []string{"batch", "-model", cfg.DefaultModel, "-in", recFile,
				"-workers", fmt.Sprint(workers), "-unique", "email_address", "-report", "json"}
			if exemplars == 1 {
				query += "&exemplars=1"
				cliArgs = append(cliArgs, "-exemplars", "1")
			}
			code, id := submit(t, ts, query, records)
			if code != http.StatusAccepted {
				t.Fatalf("%s: submit = %d", name, code)
			}
			j := waitDone(t, s, id)
			if j.State() != dqserve.StateDone {
				t.Fatalf("%s: state = %s", name, j.State())
			}
			status, serverReport := get(t, ts, "/v1/jobs/"+id+"/report")
			if status != http.StatusOK {
				t.Fatalf("%s: report = %d: %s", name, status, serverReport)
			}

			var cliOut strings.Builder
			if err := cli.Run(cliArgs, &cliOut); err != nil {
				t.Fatalf("%s: cli batch: %v", name, err)
			}

			serverNorm := normalizeReport(t, serverReport)
			cliNorm := normalizeReport(t, []byte(cliOut.String()))
			if serverNorm != cliNorm {
				t.Fatalf("%s: server and CLI reports diverge:\nserver: %s\ncli: %s",
					name, serverNorm, cliNorm)
			}
			// The reports must carry real content, not agree on emptiness.
			var res dqbatch.Result
			if err := json.Unmarshal(serverReport, &res); err != nil {
				t.Fatal(err)
			}
			if res.Records == 0 || res.Failed == 0 || res.Malformed == 0 ||
				len(res.DecodeErrors) == 0 || len(res.CrossRecords) == 0 {
				t.Fatalf("%s: report lacks expected content: %+v", name, res)
			}
		}
	}

	// The whole run's quality attribution is visible on the obs surface.
	status, metrics := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	for _, want := range []string{
		`dqserve_jobs_total{state="submitted"} 4`,
		`dqserve_jobs_total{state="completed"} 4`,
		"dq_score{",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	status, quality := get(t, ts, "/debug/quality")
	if status != http.StatusOK || !strings.Contains(string(quality), "characteristic") {
		t.Fatalf("/debug/quality = %d: %s", status, quality)
	}
}

// makeCSV builds n review rows under a header: every 13th has a quoted
// name spanning two lines, every 17th ends in CRLF, every 11th repeats an
// email address and every 97th is malformed (alternately a short row and
// a bare quote). It returns the document and its well-formed data rows.
func makeCSV(n int) (string, int64) {
	var b strings.Builder
	b.WriteString("first_name,last_name,email_address,overall_evaluation,reviewer_confidence\n")
	var rows int64
	for i := 0; i < n; i++ {
		if i%97 == 96 {
			if i%2 == 0 {
				b.WriteString("short,row\n")
			} else {
				b.WriteString("bad\"quote,Vee,q@conf.org,1,1\n")
			}
			continue
		}
		rows++
		name := fmt.Sprintf("R%d", i)
		if i%13 == 0 {
			name = fmt.Sprintf("\"R%d\nline two\"", i)
		}
		email := fmt.Sprintf("r%d@conf.org", i)
		if i%11 == 10 {
			email = "dup@conf.org"
		}
		end := "\n"
		if i%17 == 0 {
			end = "\r\n"
		}
		fmt.Fprintf(&b, "%s,Vee,%s,%d,%d%s", name, email, i%9-4, i%5+1, end)
	}
	return b.String(), rows
}

// TestServerCLIReportParityCSV extends the golden-parity contract to CSV
// jobs, chosen by ?format=csv and by Content-Type: text/csv alike: the
// served report equals `dqwebre batch -format csv` on the same bytes, and
// the job's status counts every well-formed row and every input byte.
func TestServerCLIReportParityCSV(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records, rows := makeCSV(1000)
	recFile := filepath.Join(t.TempDir(), "records.csv")
	if err := os.WriteFile(recFile, []byte(records), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		var cliOut strings.Builder
		if err := cli.Run([]string{"batch", "-model", cfg.DefaultModel, "-in", recFile, "-format", "csv",
			"-workers", fmt.Sprint(workers), "-unique", "email_address", "-report", "json"}, &cliOut); err != nil {
			t.Fatalf("workers=%d: cli batch: %v", workers, err)
		}
		cliNorm := normalizeReport(t, []byte(cliOut.String()))
		for _, via := range []struct{ query, contentType string }{
			{"&format=csv", "application/octet-stream"},
			{"", "text/csv; charset=utf-8"},
		} {
			name := fmt.Sprintf("workers=%d content-type=%s", workers, via.contentType)
			code, id := submitAs(t, ts, fmt.Sprintf("?workers=%d&unique=email_address", workers)+via.query,
				via.contentType, records)
			if code != http.StatusAccepted {
				t.Fatalf("%s: submit = %d", name, code)
			}
			if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
				t.Fatalf("%s: state = %s", name, j.State())
			}
			status, serverReport := get(t, ts, "/v1/jobs/"+id+"/report")
			if status != http.StatusOK {
				t.Fatalf("%s: report = %d: %s", name, status, serverReport)
			}
			if serverNorm := normalizeReport(t, serverReport); serverNorm != cliNorm {
				t.Fatalf("%s: server and CLI reports diverge:\nserver: %s\ncli: %s", name, serverNorm, cliNorm)
			}
			var res dqbatch.Result
			if err := json.Unmarshal(serverReport, &res); err != nil {
				t.Fatal(err)
			}
			if res.Records != rows || res.Failed == 0 || len(res.DecodeErrors) == 0 || len(res.CrossRecords) == 0 {
				t.Fatalf("%s: report lacks expected content: %+v", name, res)
			}
			_, body := get(t, ts, "/v1/jobs/"+id)
			var st struct {
				Format      string `json:"format"`
				RecordsRead int64  `json:"records_read"`
				ByteOffset  int64  `json:"byte_offset"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.Format != "csv" || st.RecordsRead != rows || st.ByteOffset != int64(len(records)) {
				t.Fatalf("%s: status = %s, want csv, %d records, %d bytes", name, body, rows, len(records))
			}
		}
	}
}

// TestInlineModelSubmission validates the multipart path: a job shipping
// its own model file produces the same report as one referencing the
// server-side copy.
func TestInlineModelSubmission(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(300)

	modelData, err := os.ReadFile(cfg.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mp, _ := mw.CreateFormFile("model", "easychair.xml")
	mp.Write(modelData)
	rp, _ := mw.CreateFormFile("records", "records.ndjson")
	rp.Write([]byte(records))
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart submit = %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	j := waitDone(t, s, acc.ID)
	if j.State() != dqserve.StateDone {
		t.Fatalf("state = %s", j.State())
	}
	_, inlineReport := get(t, ts, "/v1/jobs/"+acc.ID+"/report")

	code, refID := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	waitDone(t, s, refID)
	_, refReport := get(t, ts, "/v1/jobs/"+refID+"/report")
	if normalizeReport(t, inlineReport) != normalizeReport(t, refReport) {
		t.Fatal("inline-model report diverges from server-model report")
	}
	// Only the reference job's server-side model is cached: an inline
	// model is a per-job file, and caching its enforcer would leak one
	// dead entry per submission.
	if n := s.EnforcerCacheSize(); n != 1 {
		t.Fatalf("enforcer cache size = %d, want 1 (inline models must not be cached)", n)
	}
}

// TestQueueBoundSheds503 saturates the admission valve: with one worker
// held busy and the queued+running bound at 2, a third submission is shed
// with 503 and counted on /metrics.
func TestQueueBoundSheds503(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 2
	cfg.JobWorkers = 1
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.SetBeforeRun(func(*dqserve.Job) {
		startedOnce.Do(func() { close(started) })
		<-release
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	records := makeNDJSON(50)
	code, idA := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit A = %d", code)
	}
	<-started // A is on the worker, holding it
	code, idB := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit B = %d", code)
	}
	code, _ = submit(t, ts, "", records)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit C = %d, want 503", code)
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="shed_queue"} 1`) {
		t.Fatalf("/metrics missing shed_queue count:\n%s", metrics)
	}

	close(release)
	for _, id := range []string{idA, idB} {
		if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
			t.Fatalf("job %s state = %s", id, j.State())
		}
	}
}

// TestRateLimitSheds429 exercises the per-client token bucket on the
// submit path.
func TestRateLimitSheds429(t *testing.T) {
	cfg := testConfig(t)
	cfg.RatePerSec = 0.001
	cfg.RateBurst = 1
	s, ts := startServer(t, cfg)
	records := makeNDJSON(20)

	code, id := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	code, _ = submit(t, ts, "", records)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", code)
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="shed_rate"} 1`) {
		t.Fatalf("/metrics missing shed_rate count:\n%s", metrics)
	}
	waitDone(t, s, id)
}

// TestCancelRunningJobYieldsPartialReport cancels a job mid-stream and
// checks the partial report is well-formed, marked cancelled, and
// rendered through the shared dqbatch.RenderReport path — the same bytes
// the CLI's SIGINT partial rendering would produce for this Result.
func TestCancelRunningJobYieldsPartialReport(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	s, ts := startServer(t, cfg)

	const total = 300000
	records := makeNDJSON(total)
	code, id := submit(t, ts, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Wait until the engine is demonstrably mid-stream.
	deadline := time.Now().Add(20 * time.Second)
	for s.Job(id).Records() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started reading")
		}
		time.Sleep(200 * time.Microsecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}

	j := waitDone(t, s, id)
	if j.State() != dqserve.StateCancelled {
		t.Fatalf("state = %s, want cancelled", j.State())
	}
	status, report := get(t, ts, "/v1/jobs/"+id+"/report")
	if status != http.StatusOK {
		t.Fatalf("report = %d: %s", status, report)
	}
	var res dqbatch.Result
	if err := json.Unmarshal(report, &res); err != nil {
		t.Fatalf("partial report is not a Result: %v", err)
	}
	if res.Records == 0 || res.Records >= total {
		t.Fatalf("partial records = %d, want mid-stream (0 < n < %d)", res.Records, total)
	}
	if len(res.Characteristics) == 0 {
		t.Fatal("partial report lost its characteristics")
	}

	// Pin the served bytes to the shared renderer over the job's Result:
	// this is exactly what internal/cli/batch.go does with its partial
	// result on SIGINT.
	var want bytes.Buffer
	if err := dqbatch.RenderReport(&want, j.Result(), "json"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, want.Bytes()) {
		t.Fatal("served partial report diverges from RenderReport over the job's Result")
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="cancelled"} 1`) {
		t.Fatalf("/metrics missing cancelled count:\n%s", metrics)
	}
}

// TestRestartResumesInterruptedJob kills the server mid-validation and
// restarts it on the same staging dir: the job is re-admitted, re-run
// from its staged input, and its report equals an uninterrupted run's.
func TestRestartResumesInterruptedJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	s1, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())

	const total = 300000
	records := makeNDJSON(total)
	code, id := submit(t, ts1, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s1.Job(id).Records() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started reading")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s1.Abort() // simulated SIGKILL: on-disk state stays mid-flight
	ts1.Close()

	// The dead run never reached a terminal state; on disk its manifest
	// still says queued.
	if j := s1.Job(id); j.State() != dqserve.StateRunning {
		t.Fatalf("aborted in-memory state = %s, want running", j.State())
	}

	s2, ts2 := startServer(t, cfg)
	j2 := s2.Job(id)
	if j2 == nil {
		t.Fatal("restarted server lost the job")
	}
	j := waitDone(t, s2, id)
	if j.State() != dqserve.StateDone {
		t.Fatalf("resumed state = %s", j.State())
	}
	_, resumedReport := get(t, ts2, "/v1/jobs/"+id+"/report")

	_, metrics := get(t, ts2, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="resumed"} 1`) {
		t.Fatalf("/metrics missing resumed count:\n%s", metrics)
	}

	// Uninterrupted reference run on the restarted server.
	code, refID := submit(t, ts2, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	waitDone(t, s2, refID)
	_, refReport := get(t, ts2, "/v1/jobs/"+refID+"/report")
	if normalizeReport(t, resumedReport) != normalizeReport(t, refReport) {
		t.Fatal("resumed report diverges from uninterrupted run")
	}
}

// TestDrainDeadlineLeavesRunningJobToResume drains with a deadline that
// has already passed while a job is mid-stream: Drain reports the missed
// deadline, the job is interrupted as by a crash rather than cancelled,
// and a server restarted on the same staging dir runs it to a report
// equal to an uninterrupted run's.
func TestDrainDeadlineLeavesRunningJobToResume(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	s1, ts1 := startServer(t, cfg)

	const total = 300000
	records := makeNDJSON(total)
	code, id := submit(t, ts1, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s1.Job(id).Records() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started reading")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ts1.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := s1.Drain(ctx); err == nil {
		t.Fatal("drain past its deadline with a job running returned nil")
	}

	s2, ts2 := startServer(t, cfg)
	j := waitDone(t, s2, id)
	if j.State() != dqserve.StateDone {
		t.Fatalf("resumed state = %s", j.State())
	}
	_, resumedReport := get(t, ts2, "/v1/jobs/"+id+"/report")

	code, refID := submit(t, ts2, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	waitDone(t, s2, refID)
	_, refReport := get(t, ts2, "/v1/jobs/"+refID+"/report")
	if normalizeReport(t, resumedReport) != normalizeReport(t, refReport) {
		t.Fatal("resumed report diverges from uninterrupted run")
	}
}

// stagingFiles maps every file in dir to its contents.
func stagingFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// fileNames returns the sorted names of a stagingFiles map.
func fileNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestRestartReapsInterruptedUpload places beside a finished job what a
// crash leaves in the staging dir: the input and inline model of an upload
// that died before its manifest (and a pre-manifest .ckpt of an older
// server), a manifest write that never reached its rename, and a torn
// write for the finished job. The restart must register no job for the
// dead upload and remove exactly those files, leaving the finished job's
// files and a file that is not a job file untouched.
func TestRestartReapsInterruptedUpload(t *testing.T) {
	cfg := testConfig(t)
	s1, ts1 := startServer(t, cfg)
	code, id := submit(t, ts1, "", makeNDJSON(200))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, s1, id)
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(cfg.StagingDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("notes.txt", "operator notes\n")
	keep := stagingFiles(t, cfg.StagingDir)
	// A finished job persists its input, manifest and report, nothing else.
	want := []string{id + ".input", id + ".job", id + ".report.json", "notes.txt"}
	if got := fileNames(keep); !slices.Equal(got, want) {
		t.Fatalf("staging before restart = %v, want %v", got, want)
	}
	const orphan = "deadbeef0000"
	writeFile(orphan+".input", "{\"a\":\"1\"}\n{\"a\":")
	writeFile(orphan+".model", "<xmi/>")
	writeFile(orphan+".job.tmp", `{"id":"deadbeef0000","state":`)
	writeFile(orphan+".ckpt", `{"staged_bytes":10,"staged_complete":false}`)
	writeFile(id+".job.tmp", `{"id":`)

	s2, ts2 := startServer(t, cfg)
	if s2.Job(orphan) != nil {
		t.Fatal("restart registered a job for an upload that was never sealed")
	}
	if status, _ := get(t, ts2, "/v1/jobs/"+orphan); status != http.StatusNotFound {
		t.Fatalf("orphan job status = %d, want 404", status)
	}
	after := stagingFiles(t, cfg.StagingDir)
	if got := fileNames(after); !slices.Equal(got, want) {
		t.Fatalf("staging after restart = %v, want %v", got, want)
	}
	for name, content := range keep {
		if after[name] != content {
			t.Fatalf("restart changed or removed %s", name)
		}
	}
	if j := s2.Job(id); j == nil || j.State() != dqserve.StateDone {
		t.Fatal("finished job not served after restart")
	}
}

// TestRestartServesFinishedReports checks terminal jobs survive restarts
// byte-for-byte: the persisted report is what the new process serves.
func TestRestartServesFinishedReports(t *testing.T) {
	cfg := testConfig(t)
	s1, ts1 := startServer(t, cfg)
	code, id := submit(t, ts1, "", makeNDJSON(200))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, s1, id)
	_, before := get(t, ts1, "/v1/jobs/"+id+"/report")
	_, statusBefore := get(t, ts1, "/v1/jobs/"+id)
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := startServer(t, cfg)
	// The status document, progress included, is served byte-identically.
	if _, statusAfter := get(t, ts2, "/v1/jobs/"+id); !bytes.Equal(statusBefore, statusAfter) {
		t.Fatalf("restart changed the status document:\nbefore: %s\nafter:  %s", statusBefore, statusAfter)
	}
	status, after := get(t, ts2, "/v1/jobs/"+id+"/report")
	if status != http.StatusOK {
		t.Fatalf("restarted report = %d", status)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("restart changed the served report bytes")
	}
	// Text rendering still works on the restored Result.
	status, text := get(t, ts2, "/v1/jobs/"+id+"/report?format=text")
	if status != http.StatusOK || !strings.Contains(string(text), "records") {
		t.Fatalf("text report = %d: %s", status, text)
	}
}

// errReader yields err on every Read — the tail of a truncated upload.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestTruncatedUploadRejected drives the submit handler with a body that
// ends in io.ErrUnexpectedEOF — what net/http yields when a client
// disconnects mid-body on a Content-Length request. The submission must
// fail with a client error (a truncated upload must never be sealed,
// validated and served as a confident report over partial data), leave no
// staging files behind, and release its admission slot.
func TestTruncatedUploadRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 1
	s, _ := startServer(t, cfg)

	body := io.MultiReader(
		strings.NewReader(makeNDJSON(50)),
		errReader{err: io.ErrUnexpectedEOF},
	)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated submit = %d, want 400: %s", rec.Code, rec.Body)
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("truncated submission left staging files: %v", entries)
	}
	// The slot came back: with MaxJobs=1 a good submission still fits.
	rec2 := httptest.NewRecorder()
	req2 := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(makeNDJSON(20)))
	s.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusAccepted {
		t.Fatalf("follow-up submit = %d, want 202: %s", rec2.Code, rec2.Body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, acc.ID)
}

// TestCancelQueuedJobDoesNotWedgeSubmit cancels queued jobs and resubmits
// while the one worker is held, for more rounds than the queue holds. A
// cancel takes the job off the queue and gives its admission back, so no
// submission may block: each is admitted or, at worst, shed with an
// immediate 503.
func TestCancelQueuedJobDoesNotWedgeSubmit(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 2
	cfg.JobWorkers = 1
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.SetBeforeRun(func(*dqserve.Job) {
		startedOnce.Do(func() { close(started) })
		<-release
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The timeout is the regression detector: a submit handler that blocks
	// on a full queue never answers.
	client := &http.Client{Timeout: 10 * time.Second}
	post := func() (int, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/x-ndjson",
			strings.NewReader(makeNDJSON(30)))
		if err != nil {
			t.Fatalf("submit blocked: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var acc struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(data, &acc)
		return resp.StatusCode, acc.ID
	}
	cancel := func(id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s = %d", id, resp.StatusCode)
		}
	}

	code, runID := post()
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-started // the worker is now held mid-job

	// Repeatedly cancel whatever queues and resubmit: four rounds are more
	// than the queue's capacity of two.
	for round := 0; round < 4; round++ {
		code, id := post()
		switch code {
		case http.StatusAccepted:
			if j := s.Job(id); j.State() != dqserve.StateQueued {
				t.Fatalf("round %d: state = %s, want queued", round, j.State())
			}
			cancel(id)
		case http.StatusServiceUnavailable:
			// The admission valve says no instead of letting the enqueue
			// block.
		default:
			t.Fatalf("round %d: submit = %d", round, code)
		}
	}

	close(release)
	if j := waitDone(t, s, runID); j.State() != dqserve.StateDone {
		t.Fatalf("running job state = %s", j.State())
	}
	// With the worker free a new submission is admitted and completes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, id := post()
		if code == http.StatusAccepted {
			if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
				t.Fatalf("post-drain job state = %s", j.State())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slots never freed after ghosts drained: submit = %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBodySizeCapSheds413 checks the submission body cap: an upload past
// MaxBodyBytes is rejected with 413 (before it can fill the staging
// disk), its slot comes back, and a small job still runs.
func TestBodySizeCapSheds413(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBodyBytes = 512
	s, ts := startServer(t, cfg)

	code, _ := submit(t, ts, "", makeNDJSON(200))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", code)
	}
	code, id := submit(t, ts, "", `{"first_name":"A","last_name":"B","email_address":"a@b.c"}`+"\n")
	if code != http.StatusAccepted {
		t.Fatalf("small submit = %d, want 202", code)
	}
	waitDone(t, s, id)
}

// TestUniqueMaxExactBounded checks that a client cannot lift the exact
// uniqueness cap: unique_max_exact below 0 (always exact) or above
// dqruntime.DefaultMaxExact is rejected with 400 before any staging I/O,
// while a value inside the range is honoured — 16 sends a dataset with
// more distinct keys than that to the approximate Bloom mode.
func TestUniqueMaxExactBounded(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(200)
	for _, bad := range []int{-1, dqruntime.DefaultMaxExact + 1} {
		code, _ := submit(t, ts, fmt.Sprintf("?unique=email_address&unique_max_exact=%d", bad), records)
		if code != http.StatusBadRequest {
			t.Fatalf("unique_max_exact=%d: submit = %d, want 400", bad, code)
		}
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected submissions left staging files: %v", entries)
	}

	code, id := submit(t, ts, "?unique=email_address&unique_max_exact=16", records)
	if code != http.StatusAccepted {
		t.Fatalf("unique_max_exact=16: submit = %d, want 202", code)
	}
	if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
		t.Fatalf("state = %s", j.State())
	}
	status, report := get(t, ts, "/v1/jobs/"+id+"/report")
	if status != http.StatusOK {
		t.Fatalf("report = %d: %s", status, report)
	}
	var res dqbatch.Result
	if err := json.Unmarshal(report, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.CrossRecords) != 1 || !res.CrossRecords[0].Approximate {
		t.Fatalf("uniqueness finding at unique_max_exact=16 is not approximate: %+v", res.CrossRecords)
	}
}

// maxJobWorkers mirrors the server's bound on a job's workers.
func maxJobWorkers() int { return max(64, runtime.NumCPU()) }

// TestWorkersBounded checks that a client cannot ask one job for an
// unbounded number of workers, each of which costs a goroutine, a chunk,
// a shard and per-check states before a record is read: workers below 0
// or above max(64, NumCPU) is rejected with 400 before any staging I/O.
func TestWorkersBounded(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(50)
	for _, bad := range []int{-1, maxJobWorkers() + 1} {
		if code, _ := submit(t, ts, fmt.Sprintf("?unique=email_address&workers=%d", bad), records); code != http.StatusBadRequest {
			t.Fatalf("workers=%d: submit = %d, want 400", bad, code)
		}
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected submissions left staging files: %v", entries)
	}
	code, id := submit(t, ts, fmt.Sprintf("?unique=email_address&workers=%d", maxJobWorkers()), records)
	if code != http.StatusAccepted {
		t.Fatalf("workers=%d: submit = %d, want 202", maxJobWorkers(), code)
	}
	if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
		t.Fatalf("state = %s", j.State())
	}
}

// TestResumeChecksWorkersBound restarts a server over a sealed queued
// manifest whose workers exceed the bound (written by hand, as an older
// server without the bound could have sealed it). The resumed job fails
// with the bound's message instead of running.
func TestResumeChecksWorkersBound(t *testing.T) {
	cfg := testConfig(t)
	s1, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, id := submitTo(t, s1.Handler(), makeNDJSON(20))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	s1.Abort()

	path := filepath.Join(cfg.StagingDir, id+".job")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["options"] = map[string]any{"workers": maxJobWorkers() + 1}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts := startServer(t, cfg)
	if j := waitDone(t, s2, id); j.State() != dqserve.StateFailed {
		t.Fatalf("resumed job over the bound: state = %s, want failed", j.State())
	}
	_, body := get(t, ts, "/v1/jobs/"+id)
	want := fmt.Sprintf("workers %d outside [0, %d]", maxJobWorkers()+1, maxJobWorkers())
	if !strings.Contains(string(body), want) {
		t.Fatalf("status %s lacks %q", body, want)
	}
}

// TestContextLabelBounded checks that a client cannot grow the server's
// quality telemetry with a long context label: one of more than 128 bytes
// is rejected with 400 before any staging I/O, and one of 128 bytes labels
// the job's quality series.
func TestContextLabelBounded(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(50)
	if code, _ := submit(t, ts, "?context="+strings.Repeat("c", 129), records); code != http.StatusBadRequest {
		t.Fatalf("129-byte context: submit = %d, want 400", code)
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected submission left staging files: %v", entries)
	}

	label := strings.Repeat("c", 128)
	code, id := submit(t, ts, "?context="+label, records)
	if code != http.StatusAccepted {
		t.Fatalf("128-byte context: submit = %d, want 202", code)
	}
	waitDone(t, s, id)
	status, quality := get(t, ts, "/debug/quality")
	if status != http.StatusOK || !strings.Contains(string(quality), `"context": "`+label+`"`) {
		t.Fatalf("/debug/quality = %d, want the 128-byte context label:\n%s", status, quality)
	}
}

// TestServersKeepTheirOwnMetrics checks that a server built without a
// registry gets one of its own: a job on one server leaves another's
// counters at zero.
func TestServersKeepTheirOwnMetrics(t *testing.T) {
	cfgA, cfgB := testConfig(t), testConfig(t)
	cfgA.Registry, cfgB.Registry = nil, nil
	a, tsA := startServer(t, cfgA)
	_, tsB := startServer(t, cfgB)
	code, id := submit(t, tsA, "", makeNDJSON(50))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, a, id)
	for _, c := range []struct {
		ts   *httptest.Server
		want string
	}{
		{tsA, `dqserve_jobs_total{state="submitted"} 1`},
		{tsB, `dqserve_jobs_total{state="submitted"} 0`},
	} {
		status, metrics := get(t, c.ts, "/metrics")
		if status != http.StatusOK || !strings.Contains(string(metrics), c.want+"\n") {
			t.Errorf("/metrics = %d, want %q:\n%s", status, c.want, metrics)
		}
	}
}

// TestTerminalJobGC checks the retention sweep: a terminal job older than
// the cutoff disappears from the API and its staging files (input,
// report, manifest) are removed; fresher jobs survive.
func TestTerminalJobGC(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	code, id := submit(t, ts, "", makeNDJSON(100))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, s, id)

	if n := s.GCTerminal(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("sweep reaped %d fresh jobs, want 0", n)
	}
	if n := s.GCTerminal(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep reaped %d jobs, want 1", n)
	}
	if status, _ := get(t, ts, "/v1/jobs/"+id); status != http.StatusNotFound {
		t.Fatalf("reaped job still addressable: %d", status)
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), id) {
			t.Fatalf("staging file survived GC: %s", e.Name())
		}
	}
}

// TestDrainCompletesJobsAndLeaksNoGoroutines submits work, drains, and
// checks the worker pool (and the engine pools under it) disappear.
func TestDrainCompletesJobsAndLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.JobWorkers = 2
	s, ts := startServer(t, cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		code, id := submit(t, ts, "", makeNDJSON(500))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
			t.Fatalf("job %s state = %s", id, j.State())
		}
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > %d+2 after drain\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// holdRuns installs a SetBeforeRun hook that holds each run for which
// held() reports true until release is called, and records every job that
// reached a worker in ran. started is closed when the first run reaches
// the hook.
func holdRuns(t *testing.T, s *dqserve.Server, held func() bool) (started <-chan struct{}, release func(), ran *sync.Map) {
	t.Helper()
	first := make(chan struct{})
	gate := make(chan struct{})
	var firstOnce, releaseOnce sync.Once
	ran = new(sync.Map)
	s.SetBeforeRun(func(j *dqserve.Job) {
		ran.Store(j.ID, true)
		firstOnce.Do(func() { close(first) })
		if held() {
			<-gate
		}
	})
	release = func() { releaseOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return first, release, ran
}

// cancelJob sends DELETE /v1/jobs/{id} through h and returns the status.
func cancelJob(h http.Handler, id string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
	return rec.Code
}

// submitTo posts an NDJSON body through h and returns the status and, on
// 202, the job id.
func submitTo(t *testing.T, h http.Handler, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		return rec.Code, ""
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.ID == "" {
		t.Errorf("submit response not a job: %s", rec.Body)
	}
	return rec.Code, acc.ID
}

// TestCancelQueuedJobFreesAdmission cancels the only queued job while the
// one worker is held on another. The cancelled job leaves the queue at
// once: /healthz and dqserve_queue_depth count no queued job, and the
// admission it held admits the next submission.
func TestCancelQueuedJobFreesAdmission(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 2
	cfg.JobWorkers = 1
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	started, release, _ := holdRuns(t, s, func() bool { return true })
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	records := makeNDJSON(30)
	code, runID := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-started
	code, queuedID := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	if code := cancelJob(s.Handler(), queuedID); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	if j := s.Job(queuedID); j.State() != dqserve.StateCancelled {
		t.Fatalf("cancelled job state = %s", j.State())
	}

	_, body := get(t, ts, "/healthz")
	var health struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Queued != 0 || health.Running != 1 {
		t.Fatalf("/healthz = %s, want 0 queued and 1 running", body)
	}
	if _, metrics := get(t, ts, "/metrics"); !strings.Contains(string(metrics), "\ndqserve_queue_depth 0\n") {
		t.Fatalf("/metrics queue depth is not 0:\n%s", metrics)
	}
	code, nextID := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancelling the queued job = %d, want 202", code)
	}

	release()
	for _, id := range []string{runID, nextID} {
		if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
			t.Fatalf("job %s state = %s", id, j.State())
		}
	}
}

// TestRestartResumesBacklogPastMaxJobs restarts a server with MaxJobs 1
// over three sealed queued jobs, left by a server that never started its
// workers. Their clients hold their ids, so all three resume and complete.
// Until the backlog falls below MaxJobs, new submissions are shed.
func TestRestartResumesBacklogPastMaxJobs(t *testing.T) {
	cfg := testConfig(t)
	s1, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := makeNDJSON(100)
	var ids []string
	for i := 0; i < 3; i++ {
		code, id := submitTo(t, s1.Handler(), records)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, id)
	}
	s1.Abort()

	cfg.MaxJobs = 1
	s2, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := submitTo(t, s2.Handler(), records); code != http.StatusServiceUnavailable {
		t.Fatalf("submit over a resumed backlog of 3 at MaxJobs 1 = %d, want 503", code)
	}
	s2.Start()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	for _, id := range ids {
		if j := waitDone(t, s2, id); j.State() != dqserve.StateDone {
			t.Fatalf("resumed job %s state = %s", id, j.State())
		}
	}
	if _, metrics := get(t, ts, "/metrics"); !strings.Contains(string(metrics), `dqserve_jobs_total{state="resumed"} 3`) {
		t.Fatalf("/metrics missing resumed count:\n%s", metrics)
	}
	code, id := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the backlog ran = %d, want 202", code)
	}
	waitDone(t, s2, id)
}

// TestCancelRacesDequeue races cancels against workers starting jobs, with
// submissions arriving concurrently; run it under -race. A cancel finds a
// job either queued, and the job never runs, or running, and its partial
// report lands. So every job ends terminal, none that reached a worker is
// cancelled without a report, and no admission leaks: with the workers
// held afterwards, MaxJobs fresh submissions are all admitted.
func TestCancelRacesDequeue(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 4
	cfg.JobWorkers = 2
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hold atomic.Bool
	_, release, ran := holdRuns(t, s, hold.Load)
	s.Start()
	h := s.Handler()
	records := makeNDJSON(20)

	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				code, id := submitTo(t, h, records)
				if code == http.StatusServiceUnavailable {
					runtime.Gosched()
					continue
				}
				if code != http.StatusAccepted {
					t.Errorf("submit = %d", code)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
				if (c+i)%3 == 0 {
					runtime.Gosched()
				}
				if code := cancelJob(h, id); code != http.StatusOK {
					t.Errorf("cancel %s = %d", id, code)
				}
			}
		}(c)
	}
	wg.Wait()
	if len(ids) == 0 {
		t.Fatal("no submission was admitted")
	}
	ends := make(map[string]int)
	for _, id := range ids {
		j := waitDone(t, s, id)
		_, reached := ran.Load(id)
		if reached && j.State() == dqserve.StateCancelled && j.Result() == nil {
			t.Errorf("job %s reached a worker but was cancelled without a report", id)
		}
		ends[fmt.Sprintf("%s, ran=%v", j.State(), reached)]++
	}
	t.Logf("%d jobs by end state: %v", len(ids), ends)

	hold.Store(true)
	var fresh []string
	for i := 0; i < cfg.MaxJobs; i++ {
		code, id := submitTo(t, h, records)
		if code != http.StatusAccepted {
			t.Fatalf("fresh submit %d of %d = %d: an admission leaked", i+1, cfg.MaxJobs, code)
		}
		fresh = append(fresh, id)
	}
	if code, _ := submitTo(t, h, records); code != http.StatusServiceUnavailable {
		t.Fatalf("submit past MaxJobs = %d, want 503", code)
	}
	release()
	for _, id := range fresh {
		if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
			t.Fatalf("fresh job %s state = %s", id, j.State())
		}
	}
}
