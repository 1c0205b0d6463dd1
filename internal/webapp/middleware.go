package webapp

import (
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"github.com/modeldriven/dqwebre/internal/obs"
)

// Recover converts handler panics into 500 responses instead of tearing
// down the connection, logging the panic value. When reg is non-nil it
// also counts the panic (webapp_panics_total, labeled by route) and marks
// the request's active span — installed by the Metrics middleware — as
// errored.
func Recover(logger *log.Logger, reg *obs.Registry) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(c *Context) {
			defer func() {
				if v := recover(); v != nil {
					if logger != nil {
						logger.Printf("panic serving %s %s: %v", c.R.Method, c.R.URL.Path, v)
					}
					if reg != nil {
						reg.Counter("webapp_panics_total",
							"handler panics recovered by the webapp substrate",
							obs.Labels{"route": routeLabel(c)}).Inc()
					}
					obs.SpanFromContext(c.R.Context()).Fail(fmt.Errorf("panic: %v", v))
					http.Error(c.W, "internal server error", http.StatusInternalServerError)
				}
			}()
			next(c)
		}
	}
}

// Logging writes one line per request with method, path, response status,
// body bytes and duration. The response writer is wrapped in a
// ResponseRecorder so the status code — invisible on the raw writer — is
// observable.
func Logging(logger *log.Logger) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(c *Context) {
			rec := NewResponseRecorder(c.W)
			c.W = rec
			start := time.Now()
			next(c)
			if logger != nil {
				logger.Printf("%s %s %d %dB (%s)",
					c.R.Method, c.R.URL.Path, rec.Status(), rec.Bytes(), time.Since(start))
			}
		}
	}
}

// Metrics instruments every request: a latency histogram per route
// (http_request_duration_seconds), a status-aware request counter
// (http_requests_total) and a response-size counter, all in reg; when
// tracer is non-nil each request also runs under a span named
// "METHOD pattern" carried in the request context, so handlers and the
// layers below them can attach child spans via obs.StartSpan.
//
// Install it outermost (before Recover): its deferred bookkeeping then
// runs after Recover has written the 500, so panicking requests are
// recorded with their real status and an errored span.
func Metrics(reg *obs.Registry, tracer *obs.Tracer) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(c *Context) {
			rec := NewResponseRecorder(c.W)
			c.W = rec
			route := routeLabel(c)

			var span *obs.Span
			if tracer != nil {
				var ctx = c.R.Context()
				ctx, span = tracer.Start(ctx, c.R.Method+" "+route)
				c.R = c.R.WithContext(ctx)
			}

			start := time.Now()
			defer func() {
				elapsed := time.Since(start)
				status := strconv.Itoa(rec.Status())
				if reg != nil {
					reg.Counter("http_requests_total",
						"HTTP requests served, by method, route and status",
						obs.Labels{"method": c.R.Method, "route": route, "status": status}).Inc()
					reg.Histogram("http_request_duration_seconds",
						"HTTP request latency in seconds, by route",
						nil, obs.Labels{"route": route}).Observe(elapsed.Seconds())
					reg.Counter("http_response_bytes_total",
						"HTTP response body bytes sent, by route",
						obs.Labels{"route": route}).Add(uint64(rec.Bytes()))
				}
				span.SetAttr("status", status)
				span.End()
			}()
			next(c)
		}
	}
}

// routeLabel returns the matched route pattern, or the raw path when the
// router provided none (custom handlers constructed outside the router).
func routeLabel(c *Context) string {
	if c.Pattern != "" {
		return c.Pattern
	}
	return c.R.URL.Path
}
