package loadgen

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCountsStatusesAndShed(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 0:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{URL: srv.URL, Concurrency: 4, Requests: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 100 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.Status[200]+res.Status[503]+res.Status[429] != 100 {
		t.Fatalf("status sum: %v", res.Status)
	}
	if res.Shed != res.Status[503]+res.Status[429] || res.Shed == 0 {
		t.Fatalf("shed = %d, statuses %v", res.Shed, res.Status)
	}
	if len(res.Latencies) != 100 {
		t.Fatalf("latencies = %d", len(res.Latencies))
	}
	if res.Percentile(50) > res.Percentile(99) {
		t.Fatal("percentiles not monotone")
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunDurationBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	start := time.Now()
	res, err := Run(context.Background(), Config{URL: srv.URL, Concurrency: 2, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("duration bound ignored")
	}
	if res.Total == 0 {
		t.Fatal("no requests completed within the duration")
	}
}

func TestRunPathsRoundRobin(t *testing.T) {
	var a, b atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/a":
			a.Add(1)
		case "/b":
			b.Add(1)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	res, err := Run(context.Background(), Config{URL: srv.URL, Paths: []string{"/a", "/b"}, Concurrency: 2, Requests: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[404] != 0 {
		t.Fatalf("unexpected 404s: %v", res.Status)
	}
	if a.Load() == 0 || b.Load() == 0 {
		t.Fatalf("paths not round-robined: a=%d b=%d", a.Load(), b.Load())
	}
}

// TestRunClosesItsConnections pins that Run leaves no connection of its
// own client open: one left idle, or dialed and never used, would hold up
// the target server's graceful shutdown.
func TestRunClosesItsConnections(t *testing.T) {
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
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
	if _, err := Run(context.Background(), Config{URL: srv.URL, Concurrency: 4, Requests: 40}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(open)
		mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after Run returned", n)
		}
	}
}

func TestRunRequiresURL(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty URL accepted")
	}
}

func TestReportMentionsPercentilesAndShed(t *testing.T) {
	res := &Result{
		Total: 3, Elapsed: time.Second,
		Status:    map[int]int{200: 2, 503: 1},
		Shed:      1,
		Latencies: []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
	}
	var b strings.Builder
	res.WriteReport(&b)
	out := b.String()
	for _, want := range []string{"p50=", "p90=", "p99=", "throughput:", "status 503:", "shed:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
