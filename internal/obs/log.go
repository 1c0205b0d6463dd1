package obs

import (
	"log/slog"
	"sync"
)

// logState holds the process-wide structured-logging handler. Components
// derive their loggers from it via Logger, so one SetLogHandler call
// retargets every component at once.
var logState = struct {
	mu      sync.RWMutex
	handler slog.Handler
}{}

// SetLogHandler installs the handler behind all component loggers; nil
// restores the default (text to the slog default writer).
func SetLogHandler(h slog.Handler) {
	logState.mu.Lock()
	logState.handler = h
	logState.mu.Unlock()
}

// Logger returns a structured logger tagged with the given component name.
// Before any SetLogHandler call it uses slog's default handler.
func Logger(component string) *slog.Logger {
	logState.mu.RLock()
	h := logState.handler
	logState.mu.RUnlock()
	if h == nil {
		return slog.Default().With("component", component)
	}
	return slog.New(h).With("component", component)
}
