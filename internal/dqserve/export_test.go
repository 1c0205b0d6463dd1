package dqserve

import "time"

// Test-only access to the white-box hooks, so the behavioural tests can
// live in package dqserve_test (which may import internal/cli without a
// cycle) and still saturate the pool and simulate crashes.

// SetBeforeRun installs the worker-side hook that runs after a worker takes
// a job off the queue and marks it running, before the engine starts.
// Install before Start.
func (s *Server) SetBeforeRun(f func(*Job)) { s.beforeRun = f }

// Abort simulates a SIGKILL: workers stop without any terminal state
// reaching disk, leaving manifests saying queued for the restart tests.
func (s *Server) Abort() {
	s.stop()
	s.interrupt()
	s.wg.Wait()
}

// GCTerminal runs one retention sweep with the given cutoff and returns
// how many terminal jobs it reaped.
func (s *Server) GCTerminal(cutoff time.Time) int { return s.gcTerminal(cutoff) }

// EnforcerCacheSize reports how many model enforcers are cached.
func (s *Server) EnforcerCacheSize() int {
	s.enfMu.Lock()
	defer s.enfMu.Unlock()
	return len(s.enfCache)
}
