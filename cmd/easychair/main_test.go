package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/loadgen"
	"github.com/modeldriven/dqwebre/internal/webapp"
)

// startServer runs the full serving stack (run()) on an ephemeral port and
// returns its base URL, the cancel that simulates SIGTERM, and a channel
// carrying run's return value.
func startServer(t *testing.T, cfg config, hook func(*easychair.App)) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	testAppHook = hook
	t.Cleanup(func() { testAppHook = nil })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	logger := log.New(io.Discard, "", 0)
	go func() { errc <- run(ctx, cfg, logger, ln) }()

	base := "http://" + ln.Addr().String()
	waitUntil(t, 5*time.Second, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return base, cancel, errc
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func defaultTestConfig() config {
	cfg, err := parseFlags(nil)
	if err != nil {
		panic(err)
	}
	cfg.drainTimeout = 5 * time.Second
	return cfg
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestServerShedsUnderOverloadAndRecovers saturates a 2-slot server with
// slow requests driven by the load generator: the excess is shed with 503,
// the shedding is visible on /metrics (which stays reachable, being
// exempt), and once the overload passes a normal request succeeds again.
func TestServerShedsUnderOverloadAndRecovers(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.maxConcurrent = 2

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	base, cancel, errc := startServer(t, cfg, func(app *easychair.App) {
		app.Router.GET("/slow", func(c *webapp.Context) {
			<-gate
			c.Text(http.StatusOK, "slow done\n")
		})
	})
	defer cancel()

	// Assert increases over a scrape taken before the overload.
	const shedSeries = `http_requests_shed_total{reason="overload"}`
	const slow503Series = `http_requests_total{method="GET",route="/slow",status="503"}`
	_, before := getBody(t, base+"/metrics")
	shed0, slow0 := metricValue(t, before, shedSeries), metricValue(t, before, slow503Series)

	var wg sync.WaitGroup
	results := make(chan int, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/slow")
			if err != nil {
				results <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}

	// 10 of the 12 must be shed while 2 hold the slots.
	var shed int
	waitUntil(t, 5*time.Second, func() bool {
		for {
			select {
			case s := <-results:
				if s != http.StatusServiceUnavailable {
					t.Fatalf("shed request got %d, want 503", s)
				}
				shed++
			default:
				return shed == 10
			}
		}
	})

	// /metrics stays reachable at saturation and shows the shed traffic.
	status, metrics := getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics at saturation: %d", status)
	}
	if got := metricValue(t, metrics, shedSeries) - shed0; got != 10 {
		t.Errorf("shed counter rose by %v, want 10:\n%s", got, grepLines(metrics, "shed"))
	}
	if got := metricValue(t, metrics, slow503Series) - slow0; got != 10 {
		t.Errorf("503s in request counter rose by %v, want 10:\n%s", got, grepLines(metrics, "http_requests_total"))
	}

	// Recovery: release the slow handlers, then the server serves again.
	openGate()
	wg.Wait()
	if s, _ := getBody(t, base+"/healthz"); s != http.StatusOK {
		t.Fatalf("health after overload: %d", s)
	}
	if s, body := getBody(t, base+"/slow"); s != http.StatusOK || !strings.Contains(body, "slow done") {
		t.Fatalf("server did not recover: %d %q", s, body)
	}

	// The burst can leave a connection the client dialed but never used
	// in its idle pool. The server sees it as StateNew, and Shutdown counts
	// such a connection as idle only once it is over 5 s old — as long as
	// the whole drain deadline. Close it so the drain measures the server.
	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestServerRateLimitsPerClient drives one client hard against a tight
// per-client rate and expects 429s in both the responses and /metrics.
func TestServerRateLimitsPerClient(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.ratePerSec = 1
	cfg.rateBurst = 3

	base, cancel, errc := startServer(t, cfg, nil)
	defer cancel()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		URL: base, Paths: []string{"/dq/requirements"}, Concurrency: 4, Requests: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s under a 1 req/s limit: %v", res.Status)
	}
	if res.Shed == 0 {
		t.Fatal("load report counts no shed traffic")
	}

	_, metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, `http_requests_shed_total{reason="rate_limit"}`) {
		t.Errorf("/metrics missing rate_limit shed counter:\n%s", grepLines(metrics, "shed"))
	}

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestGracefulShutdownDrainsInFlight starts a request that is mid-flight
// when the shutdown signal arrives and checks it completes with 200 while
// new connections are refused and run() exits cleanly within the drain
// deadline.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	cfg := defaultTestConfig()

	release := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	base, cancel, errc := startServer(t, cfg, func(app *easychair.App) {
		app.Router.GET("/slow", func(c *webapp.Context) {
			enterOnce.Do(func() { close(entered) })
			<-release
			c.Text(http.StatusOK, "drained fine\n")
		})
	})
	defer cancel()

	type result struct {
		status int
		body   string
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{status: resp.StatusCode, body: string(b)}
	}()

	<-entered
	cancel() // the SIGTERM path: signal.NotifyContext cancels this ctx

	// The listener closes promptly; give the handler its answer after the
	// drain has begun, then the in-flight request must still complete.
	time.Sleep(50 * time.Millisecond)
	close(release)

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request killed by shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || !strings.Contains(r.body, "drained fine") {
		t.Fatalf("in-flight request: %d %q", r.status, r.body)
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v, want clean shutdown", err)
		}
	case <-time.After(cfg.drainTimeout + 2*time.Second):
		t.Fatal("run did not exit after drain")
	}

	// After shutdown the port no longer accepts connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestDrainDeadlineForcesExit wedges a handler past the drain deadline and
// checks run() still exits (with an error) instead of hanging forever.
func TestDrainDeadlineForcesExit(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.drainTimeout = 100 * time.Millisecond

	stuck := make(chan struct{})
	defer close(stuck)
	entered := make(chan struct{})
	var enterOnce sync.Once
	base, cancel, errc := startServer(t, cfg, func(app *easychair.App) {
		app.Router.GET("/stuck", func(c *webapp.Context) {
			enterOnce.Do(func() { close(entered) })
			<-stuck
		})
	})
	defer cancel()

	go func() {
		resp, err := http.Get(base + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()

	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
			t.Fatalf("err = %v, want drain incomplete", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run hung past the drain deadline")
	}
}

// metricValue returns the value /metrics reports for one series (name
// and labels as exposed), or 0 when the series is absent.
func metricValue(t *testing.T, metrics, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

// grepLines filters text to lines containing sub, for focused failures.
func grepLines(text, sub string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
