package webapp

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/obs"
)

// ConcurrencyLimiter bounds the number of requests in flight at once. It is
// the serving stack's overload valve: when the server is saturated, excess
// requests are shed immediately with 503 Service Unavailable instead of
// queueing until timeouts tear everything down.
type ConcurrencyLimiter struct {
	sem chan struct{}

	// metrics; nil until Instrument.
	inflight *obs.Gauge
	shed     *obs.Counter
	admitted *obs.Counter
}

// NewConcurrencyLimiter admits at most max concurrent requests; max <= 0
// defaults to 1.
func NewConcurrencyLimiter(max int) *ConcurrencyLimiter {
	if max <= 0 {
		max = 1
	}
	return &ConcurrencyLimiter{sem: make(chan struct{}, max)}
}

// Instrument registers the limiter's metrics in reg: the
// http_inflight_requests gauge, the http_requests_shed_total{reason}
// counter and an admitted counter.
func (l *ConcurrencyLimiter) Instrument(reg *obs.Registry) {
	l.inflight = reg.Gauge("http_inflight_requests",
		"requests currently being served", nil)
	l.shed = reg.Counter("http_requests_shed_total",
		"requests rejected by the load-shedding middleware, by reason",
		obs.Labels{"reason": "overload"})
	l.admitted = reg.Counter("http_requests_admitted_total",
		"requests admitted by the concurrency limiter", nil)
}

// TryAcquire claims a slot without blocking; callers that get true must
// Release.
func (l *ConcurrencyLimiter) TryAcquire() bool {
	select {
	case l.sem <- struct{}{}:
		if l.inflight != nil {
			l.inflight.Add(1)
		}
		if l.admitted != nil {
			l.admitted.Inc()
		}
		return true
	default:
		if l.shed != nil {
			l.shed.Inc()
		}
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (l *ConcurrencyLimiter) Release() {
	<-l.sem
	if l.inflight != nil {
		l.inflight.Add(-1)
	}
}

// InFlight returns the number of currently admitted requests.
func (l *ConcurrencyLimiter) InFlight() int { return len(l.sem) }

// Middleware sheds requests with 503 when the limiter is saturated.
// Paths matching exempt (exact, or as a "/"-delimited prefix) bypass the
// limiter entirely — probes and the metrics scrape must stay reachable
// precisely when the server is overloaded.
func (l *ConcurrencyLimiter) Middleware(exempt ...string) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(c *Context) {
			if pathExempt(c.R.URL.Path, exempt) {
				next(c)
				return
			}
			if !l.TryAcquire() {
				c.W.Header().Set("Retry-After", "1")
				c.Text(http.StatusServiceUnavailable, "server overloaded, retry later\n")
				return
			}
			defer l.Release()
			next(c)
		}
	}
}

// RateLimiter applies a per-client token bucket: each client key accrues
// rate tokens per second up to burst, and every request spends one. It
// protects the server from a single hot client the way the concurrency
// limiter protects it from aggregate overload.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket

	// maxClients bounds the bucket map: a new client finding it full
	// clears it. A forgotten client restarts with a full bucket, as an
	// idle one would, and resets come at most once per maxClients clients.
	maxClients int

	// metrics; nil until Instrument.
	shed    *obs.Counter
	clients *obs.Gauge
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter allows ratePerSec sustained requests per client with the
// given burst headroom. ratePerSec <= 0 disables limiting (Allow always
// returns true); burst < 1 defaults to 1.
func NewRateLimiter(ratePerSec float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:       ratePerSec,
		burst:      float64(burst),
		now:        time.Now,
		buckets:    make(map[string]*bucket),
		maxClients: 16384,
	}
}

// Instrument registers the limiter's metrics in reg.
func (l *RateLimiter) Instrument(reg *obs.Registry) {
	l.shed = reg.Counter("http_requests_shed_total",
		"requests rejected by the load-shedding middleware, by reason",
		obs.Labels{"reason": "rate_limit"})
	l.clients = reg.Gauge("http_rate_limiter_clients",
		"distinct clients tracked by the rate limiter", nil)
}

// Allow reports whether the client identified by key may proceed, spending
// one token when it may.
func (l *RateLimiter) Allow(key string) bool {
	if l.rate <= 0 {
		return true
	}
	now := l.now()
	l.mu.Lock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= l.maxClients {
			clear(l.buckets)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens = min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	allowed := b.tokens >= 1
	if allowed {
		b.tokens--
	}
	clients, n := l.clients, len(l.buckets)
	l.mu.Unlock()
	if clients != nil {
		clients.Set(float64(n))
	}
	if !allowed && l.shed != nil {
		l.shed.Inc()
	}
	return allowed
}

// Clients returns the number of tracked client buckets.
func (l *RateLimiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Middleware sheds requests with 429 when the client's bucket is empty.
// Clients are keyed by remote IP (the port varies per connection). Paths
// matching exempt bypass the limiter.
func (l *RateLimiter) Middleware(exempt ...string) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(c *Context) {
			if pathExempt(c.R.URL.Path, exempt) {
				next(c)
				return
			}
			if !l.Allow(ClientKey(c.R)) {
				c.W.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(l.rate)))
				c.Text(http.StatusTooManyRequests, "rate limit exceeded, retry later\n")
				return
			}
			next(c)
		}
	}
}

// retryAfterSeconds suggests how long until one token accrues, at least 1s.
func retryAfterSeconds(rate float64) int {
	if rate <= 0 {
		return 1
	}
	s := int(1 / rate)
	if s < 1 {
		s = 1
	}
	return s
}

// ClientKey identifies the requesting client: the remote IP without the
// ephemeral port, falling back to the whole RemoteAddr. It is the key the
// rate-limit middleware buckets by, exported so servers that apply the
// limiters by hand (the dqserve job API) shed by the same identity.
func ClientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// pathExempt reports whether path equals one of the exempt entries or sits
// beneath one ("/debug" exempts "/debug/pprof/...").
func pathExempt(path string, exempt []string) bool {
	for _, e := range exempt {
		if e == "" {
			continue
		}
		if path == e || strings.HasPrefix(path, strings.TrimSuffix(e, "/")+"/") {
			return true
		}
	}
	return false
}
