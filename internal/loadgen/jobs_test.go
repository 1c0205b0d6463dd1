package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubJobServer mimics the dqserve job API: it accepts submissions up to
// a capacity, sheds the rest with 503, and reports each job done after
// two status polls.
type stubJobServer struct {
	mu       sync.Mutex
	capacity int
	accepted int
	polls    map[string]int
	bodies   map[string]int
}

func (s *stubJobServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.accepted >= s.capacity {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		s.accepted++
		id := fmt.Sprintf("job%04d", s.accepted)
		s.bodies[id] = len(body)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.bodies[id]; !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		s.polls[id]++
		state := "running"
		if s.polls[id] >= 2 {
			state = "done"
		}
		fmt.Fprintf(w, `{"id":%q,"state":%q}`, id, state)
	})
	return mux
}

func TestRunJobsAgainstStubServer(t *testing.T) {
	stub := &stubJobServer{capacity: 5, polls: map[string]int{}, bodies: map[string]int{}}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	body := []byte(`{"a":"1"}` + "\n" + `{"a":"2"}` + "\n")
	res, err := RunJobs(context.Background(), JobConfig{
		URL:         ts.URL,
		Body:        body,
		Jobs:        8,
		Concurrency: 3,
		PollEvery:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 5 || res.Done != 5 {
		t.Fatalf("submitted/done = %d/%d, want 5/5", res.Submitted, res.Done)
	}
	if res.Shed != 3 {
		t.Fatalf("shed = %d, want 3", res.Shed)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if len(res.SubmitLatencies) != 5 || len(res.CompleteLatencies) != 5 {
		t.Fatalf("latencies = %d submit / %d complete, want 5/5",
			len(res.SubmitLatencies), len(res.CompleteLatencies))
	}
	for id, n := range stub.bodies {
		if n != len(body) {
			t.Fatalf("job %s received %d body bytes, want %d", id, n, len(body))
		}
	}

	var report strings.Builder
	res.WriteReport(&report)
	for _, want := range []string{"5 submitted", "5 done", "shed:        3", "submit:", "complete:"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
}

// TestRunJobsClosesItsConnections pins that RunJobs, like Run, leaves no
// connection of its own client open: one left idle would hold up the
// target server's graceful shutdown.
func TestRunJobsClosesItsConnections(t *testing.T) {
	stub := &stubJobServer{capacity: 8, polls: map[string]int{}, bodies: map[string]int{}}
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(stub.handler())
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	srv.Start()
	defer srv.Close()
	res, err := RunJobs(context.Background(), JobConfig{
		URL: srv.URL, Body: []byte(`{"a":"1"}` + "\n"), Jobs: 8, Concurrency: 3, PollEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 8 {
		t.Fatalf("done = %d, want 8", res.Done)
	}
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(open)
		mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after RunJobs returned", n)
		}
	}
}

func TestRunJobsValidatesConfig(t *testing.T) {
	if _, err := RunJobs(context.Background(), JobConfig{Body: []byte("x")}); err == nil {
		t.Fatal("missing URL accepted")
	}
	if _, err := RunJobs(context.Background(), JobConfig{URL: "http://x"}); err == nil {
		t.Fatal("missing body accepted")
	}
}
