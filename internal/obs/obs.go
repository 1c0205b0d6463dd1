// Package obs is the system-observability kernel of the repository: where
// internal/metrics watches the quality of the *data* flowing through the
// pipeline, obs watches the *system* that moves it. It is dependency-free
// (standard library only, like the rest of the module) and provides three
// coordinated facilities:
//
//   - Tracing: a Tracer hands out nestable Spans (name, attributes,
//     start/duration, error) propagated through context.Context. Finished
//     root spans land in a fixed-size ring buffer and export as a text
//     span tree or JSON — `dqwebre trace` and /debug/spans render them.
//   - Metrics: atomic Counter, Gauge and fixed-bucket Histogram types in a
//     Registry that renders the Prometheus text exposition format, served
//     at /metrics by the EasyChair webapp and `dqwebre serve`, and a
//     SeriesSet of windowed scores rendered beside it at scrape time.
//   - Logging: thin per-component *slog.Logger construction over one
//     process-wide handler.
//
// There is no process-wide registry: a Registry belongs to the server that
// serves it, and code that records into one is handed it explicitly.
// Library code (validate, transform, xmi) records spans only, under
// whatever span is already in the incoming context, so uninstrumented
// callers pay almost nothing: a context lookup that misses yields a nil
// *Span whose methods are no-ops.
package obs

import "context"

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying the given span; child spans
// started from it via StartSpan attach below the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil when the context carries
// none. A nil *Span is safe to use: all its methods are no-ops.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span. When the context
// carries no span — the caller opted out of tracing — it returns the
// context unchanged and a nil span, so instrumented library code costs one
// context lookup on the untraced path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tracer.newSpan(name, parent)
	return ContextWithSpan(ctx, child), child
}
