package obs

import "log/slog"

// Logger returns slog's default logger tagged with the given component
// name, so one slog.SetDefault call retargets every component.
func Logger(component string) *slog.Logger {
	return slog.Default().With("component", component)
}
