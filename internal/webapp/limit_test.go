package webapp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/obs"
)

// TestConcurrencyLimiterShedsAtSaturation floods a limiter of capacity 2
// whose admitted handlers block on a gate: every admitted request must
// eventually get 200, every shed request must get 503 promptly, and none
// may hang.
func TestConcurrencyLimiterShedsAtSaturation(t *testing.T) {
	const capacity = 2
	const clients = 20

	reg := obs.NewRegistry()
	cl := NewConcurrencyLimiter(capacity)
	cl.Instrument(reg)

	gate := make(chan struct{})
	var admitted atomic.Int32
	r := NewRouter()
	r.Use(cl.Middleware())
	r.GET("/work", func(c *Context) {
		admitted.Add(1)
		<-gate
		c.Text(http.StatusOK, "done")
	})
	srv := httptest.NewServer(r)
	defer srv.Close()

	statuses := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/work")
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}

	// Wait for the limiter to fill, then count the shed responses: all but
	// the admitted two must already be answerable without the gate opening.
	deadline := time.After(5 * time.Second)
	for admitted.Load() < capacity {
		select {
		case <-deadline:
			t.Fatalf("limiter never admitted %d requests", capacity)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	var got503 int
	for i := 0; i < clients-capacity; i++ {
		select {
		case s := <-statuses:
			if s != http.StatusServiceUnavailable {
				t.Fatalf("shed request got %d, want 503", s)
			}
			got503++
		case <-deadline:
			t.Fatalf("shed request hung (got %d of %d 503s)", got503, clients-capacity)
		}
	}

	close(gate)
	for i := 0; i < capacity; i++ {
		select {
		case s := <-statuses:
			if s != http.StatusOK {
				t.Fatalf("admitted request got %d, want 200", s)
			}
		case <-deadline:
			t.Fatal("admitted request hung after gate opened")
		}
	}

	text := reg.PrometheusText()
	if !strings.Contains(text, `http_requests_shed_total{reason="overload"} 18`) {
		t.Errorf("shed counter missing or wrong:\n%s", text)
	}
	if cl.InFlight() != 0 {
		t.Errorf("in-flight after drain = %d", cl.InFlight())
	}
}

// TestConcurrencyLimiterRecovers verifies the valve reopens once load
// passes: after a saturated burst, a fresh request succeeds.
func TestConcurrencyLimiterRecovers(t *testing.T) {
	cl := NewConcurrencyLimiter(1)
	r := NewRouter()
	r.Use(cl.Middleware())
	r.GET("/ping", func(c *Context) { c.Text(http.StatusOK, "pong") })
	srv := httptest.NewServer(r)
	defer srv.Close()

	if !cl.TryAcquire() {
		t.Fatal("fresh limiter refused")
	}
	resp, err := http.Get(srv.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	cl.Release()
	resp, err = http.Get(srv.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered: got %d, want 200", resp.StatusCode)
	}
}

// TestConcurrencyLimiterExemptPaths keeps probes reachable at saturation.
func TestConcurrencyLimiterExemptPaths(t *testing.T) {
	cl := NewConcurrencyLimiter(1)
	r := NewRouter()
	r.Use(cl.Middleware("/healthz", "/debug"))
	r.GET("/healthz", func(c *Context) { c.Text(http.StatusOK, "ok") })
	r.GET("/debug/spans", func(c *Context) { c.Text(http.StatusOK, "spans") })
	r.GET("/work", func(c *Context) { c.Text(http.StatusOK, "work") })
	srv := httptest.NewServer(r)
	defer srv.Close()

	if !cl.TryAcquire() { // saturate
		t.Fatal("acquire")
	}
	defer cl.Release()
	for path, want := range map[string]int{
		"/healthz":     http.StatusOK,
		"/debug/spans": http.StatusOK,
		"/work":        http.StatusServiceUnavailable,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: got %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestConcurrencyLimiterRace hammers TryAcquire/Release from many
// goroutines; run under -race this is the limiter's memory-safety proof.
func TestConcurrencyLimiterRace(t *testing.T) {
	reg := obs.NewRegistry()
	cl := NewConcurrencyLimiter(4)
	cl.Instrument(reg)
	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if cl.TryAcquire() {
					served.Add(1)
					cl.Release()
				}
			}
		}()
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("nothing admitted")
	}
	if cl.InFlight() != 0 {
		t.Fatalf("in-flight = %d after all released", cl.InFlight())
	}
}

// TestRateLimiterTokenBucket drives the bucket with a fake clock: burst is
// honored, then refill at the configured rate.
func TestRateLimiterTokenBucket(t *testing.T) {
	rl := NewRateLimiter(2, 3) // 2 tokens/s, burst 3
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !rl.Allow("alice") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if rl.Allow("alice") {
		t.Fatal("request beyond burst allowed")
	}
	if !rl.Allow("bob") {
		t.Fatal("independent client denied")
	}
	now = now.Add(500 * time.Millisecond) // 1 token accrues
	if !rl.Allow("alice") {
		t.Fatal("refilled token denied")
	}
	if rl.Allow("alice") {
		t.Fatal("second request after single refill allowed")
	}
	now = now.Add(time.Hour) // refill clamps at burst
	for i := 0; i < 3; i++ {
		if !rl.Allow("alice") {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if rl.Allow("alice") {
		t.Fatal("bucket exceeded burst after idle")
	}
}

// TestRateLimiterClientMapBounded sends 20,000 distinct clients through
// the limiter on a fixed clock, so none is idle: the bucket map still
// never holds more than maxClients.
func TestRateLimiterClientMapBounded(t *testing.T) {
	rl := NewRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }
	for i := 0; i < 20000; i++ {
		rl.Allow(fmt.Sprintf("client-%d", i))
		if n := rl.Clients(); n > rl.maxClients {
			t.Fatalf("after %d clients the limiter tracks %d, more than %d", i+1, n, rl.maxClients)
		}
	}
}

// TestRateLimiterHotKeyOutlivesNewClients checks that a client that spent
// its burst stays limited while fewer than maxClients other clients
// arrive: the map is cleared only when a new client finds it full.
func TestRateLimiterHotKeyOutlivesNewClients(t *testing.T) {
	rl := NewRateLimiter(1, 2)
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }
	for rl.Allow("hot") {
	}
	for i := 0; i < rl.maxClients-1; i++ {
		if !rl.Allow(fmt.Sprintf("client-%d", i)) {
			t.Fatalf("new client %d denied", i)
		}
	}
	if rl.Allow("hot") {
		t.Fatalf("hot client allowed again after %d other clients", rl.maxClients-1)
	}
}

// TestRateLimiterMiddleware checks the 429 path end to end, including the
// Retry-After hint and per-client keying by IP.
func TestRateLimiterMiddleware(t *testing.T) {
	reg := obs.NewRegistry()
	rl := NewRateLimiter(0.5, 2)
	rl.Instrument(reg)
	r := NewRouter()
	r.Use(rl.Middleware("/metrics"))
	r.GET("/api", func(c *Context) { c.Text(http.StatusOK, "ok") })
	r.GET("/metrics", func(c *Context) { c.Text(http.StatusOK, "metrics") })
	srv := httptest.NewServer(r)
	defer srv.Close()

	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if s := get("/api").StatusCode; s != http.StatusOK {
		t.Fatalf("first: %d", s)
	}
	if s := get("/api").StatusCode; s != http.StatusOK {
		t.Fatalf("second (burst): %d", s)
	}
	third := get("/api")
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third: got %d, want 429", third.StatusCode)
	}
	if third.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want 2 (1/rate)", third.Header.Get("Retry-After"))
	}
	if s := get("/metrics").StatusCode; s != http.StatusOK {
		t.Fatalf("exempt path limited: %d", s)
	}
	if !strings.Contains(reg.PrometheusText(), `http_requests_shed_total{reason="rate_limit"} 1`) {
		t.Errorf("rate_limit shed counter missing:\n%s", reg.PrometheusText())
	}
}

// TestRateLimiterRace exercises concurrent Allow across many keys,
// including map growth and pruning, under -race.
func TestRateLimiterRace(t *testing.T) {
	rl := NewRateLimiter(1000, 10)
	rl.maxClients = 32 // force pruning churn
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rl.Allow(fmt.Sprintf("client-%d-%d", g, i%64))
			}
		}(g)
	}
	wg.Wait()
	if rl.Clients() == 0 {
		t.Fatal("no clients tracked")
	}
}

// TestRateLimiterDisabled: rate 0 admits everything.
func TestRateLimiterDisabled(t *testing.T) {
	rl := NewRateLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if !rl.Allow("k") {
			t.Fatal("disabled limiter denied a request")
		}
	}
	if rl.Clients() != 0 {
		t.Fatal("disabled limiter tracked clients")
	}
}
