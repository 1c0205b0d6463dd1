package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqserve"
)

func TestCmdServeRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := Run([]string{"serve"}, &out); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Fatalf("serve without -model: %v", err)
	}
	if err := Run([]string{"serve", "-model", "m.xml", "extra"}, &out); err == nil ||
		!strings.Contains(err.Error(), "positional") {
		t.Fatalf("serve with positional args: %v", err)
	}
	if err := Run([]string{"serve", "-model", "m.xml", "-checkpoint-every", "1s"}, &out); err == nil ||
		!strings.Contains(err.Error(), "not defined") {
		t.Fatalf("serve with the removed -checkpoint-every: %v", err)
	}
}

// TestRunServeLifecycle boots the service on an ephemeral port through the
// same path `dqwebre serve` uses, validates one job end to end over HTTP,
// then cancels the context and checks the drain completes.
func TestRunServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	model := writeDemoModel(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := dqserve.Config{
		StagingDir:   filepath.Join(dir, "staging"),
		LoadEnforcer: LoadEnforcer,
		DefaultModel: model,
		ModelDir:     dir,
	}
	var mu sync.Mutex
	var out strings.Builder
	lockedWrite := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, cfg, "", time.Minute, 10*time.Second, ln, lockedWrite)
	}()

	records := strings.Repeat(`{"first_name":"G","last_name":"H","email_address":"g@h.io","overall_evaluation":2,"reviewer_confidence":3}`+"\n", 25)
	resp, err := http.Post(base+"/v1/jobs", "application/x-ndjson", strings.NewReader(records))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var status struct {
			State   string `json:"state"`
			Records int64  `json:"records_read"`
		}
		if err := json.Unmarshal(body, &status); err != nil {
			t.Fatalf("status not JSON: %s", body)
		}
		if status.State == "done" {
			if status.Records != 25 {
				t.Fatalf("records_read = %d, want 25", status.Records)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runServe did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{"listening on", "shutdown complete"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCmdLoadJobModeNeedsBody(t *testing.T) {
	var out strings.Builder
	err := Run([]string{"load", "-jobs", "4"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-job-body") {
		t.Fatalf("load -jobs without -job-body: %v", err)
	}
}

// TestCmdLoadJobMode drives the job-mode flags end to end against a stub
// job API (accept → poll → done) and checks the report, including the
// dqserve_jobs_total deltas between the stub's before and after scrapes.
func TestCmdLoadJobMode(t *testing.T) {
	var mu sync.Mutex
	polls := map[string]int{}
	next := 0
	scrapes := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		scrapes++
		after := scrapes > 1
		mu.Unlock()
		counts := []int{10, 8, 1, 1, 5, 2}
		if after {
			counts = []int{14, 12, 1, 1, 7, 2}
		}
		fmt.Fprintln(w, "# TYPE dqserve_jobs_total counter")
		for i, st := range []string{"submitted", "completed", "failed", "cancelled", "shed_queue", "shed_rate"} {
			fmt.Fprintf(w, "dqserve_jobs_total{state=%q} %d\n", st, counts[i])
		}
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		next++
		id := fmt.Sprintf("j%d", next)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		polls[r.PathValue("id")]++
		n := polls[r.PathValue("id")]
		mu.Unlock()
		state := "running"
		if n >= 2 {
			state = "done"
		}
		fmt.Fprintf(w, `{"state":%q}`, state)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	body := filepath.Join(t.TempDir(), "records.ndjson")
	if err := os.WriteFile(body, []byte(`{"a":"1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = Run([]string{"load", "-url", "http://" + ln.Addr().String(),
		"-jobs", "4", "-job-body", body, "-c", "2", "-poll", "1ms"}, &out)
	if err != nil {
		t.Fatalf("load -jobs: %v\n%s", err, out.String())
	}
	for _, want := range []string{"4 submitted", "4 done", "shed:        0",
		"server:      4 submitted, 4 completed, 0 failed, 0 cancelled, 2 shed_queue, 0 shed_rate"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
