package webapp

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/obs"
)

// Session is a per-visitor key-value bag, safe for concurrent use.
type Session struct {
	// ID is the opaque session identifier stored in the cookie; "" on a
	// session the router resolved for a request without one, until a
	// handler stores a value in it.
	ID string

	mu         sync.RWMutex
	values     map[string]string
	lastAccess time.Time

	// register, on a session resolved for a request without one, adds the
	// session to its manager and sets its cookie; the first Set runs it.
	register   func()
	registered sync.Once
}

// live runs register once, if the session has one.
func (s *Session) live() {
	if s.register != nil {
		s.registered.Do(s.register)
	}
}

// Get returns a session value, "" when unset.
func (s *Session) Get(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.values[key]
}

// Set assigns a session value. On a session the router resolved for a
// request without one, the first Set creates the session and sets its
// cookie, so it must come before the response is written.
func (s *Session) Set(key, value string) {
	s.live()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = value
}

// Delete removes a session value.
func (s *Session) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.values, key)
}

// touch records an access at t.
func (s *Session) touch(t time.Time) {
	s.mu.Lock()
	s.lastAccess = t
	s.mu.Unlock()
}

// LastAccess returns the time of the most recent resolution through the
// manager (creation counts as an access).
func (s *Session) LastAccess() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastAccess
}

// SessionManager issues and resolves cookie-backed in-memory sessions.
//
// Sessions have a lifecycle: an optional idle TTL (sessions unreferenced
// for longer are expired), an optional cap on live sessions (creation
// beyond the cap evicts the least recently accessed session first), and a
// background sweeper that reclaims expired sessions so the map cannot grow
// without bound between requests.
type SessionManager struct {
	cookie string

	mu          sync.RWMutex
	sessions    map[string]*Session
	ttl         time.Duration // 0 = sessions never expire
	maxSessions int           // 0 = unbounded
	now         func() time.Time

	// lifecycle metrics; nil until Instrument.
	active  *obs.Gauge
	created *obs.Counter
	expired *obs.Counter
	evicted *obs.Counter
}

// NewSessionManager creates a manager using the given cookie name, with no
// TTL and no session cap (configure via SetTTL / SetMaxSessions).
func NewSessionManager(cookieName string) *SessionManager {
	return &SessionManager{
		cookie:   cookieName,
		sessions: make(map[string]*Session),
		now:      time.Now,
	}
}

// SetTTL sets the idle time-to-live. Sessions not resolved through Get or
// Lookup for longer than d are expired: invisible to lookups and reclaimed
// by Sweep. d <= 0 disables expiry.
func (m *SessionManager) SetTTL(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d < 0 {
		d = 0
	}
	m.ttl = d
}

// TTL returns the configured idle time-to-live (0 = never expire).
func (m *SessionManager) TTL() time.Duration {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ttl
}

// SetMaxSessions caps the number of live sessions. When a new session
// would exceed the cap, the least recently accessed session is evicted
// first. n <= 0 removes the cap.
func (m *SessionManager) SetMaxSessions(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		n = 0
	}
	m.maxSessions = n
}

// Instrument registers lifecycle metrics in reg: webapp_sessions_active,
// webapp_sessions_created_total and webapp_sessions_removed_total (labeled
// by reason: expired or capacity).
func (m *SessionManager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active = reg.Gauge("webapp_sessions_active", "live sessions held by the session manager", nil)
	m.created = reg.Counter("webapp_sessions_created_total", "sessions created", nil)
	m.expired = reg.Counter("webapp_sessions_removed_total", "sessions removed, by reason",
		obs.Labels{"reason": "expired"})
	m.evicted = reg.Counter("webapp_sessions_removed_total", "sessions removed, by reason",
		obs.Labels{"reason": "capacity"})
	m.active.Set(float64(len(m.sessions)))
}

// Get resolves the request's session, creating one (and setting the cookie)
// when absent, unknown or expired. Resolution counts as an access for TTL
// purposes.
func (m *SessionManager) Get(w http.ResponseWriter, r *http.Request) *Session {
	s := m.resolve(w, r)
	s.live()
	return s
}

// resolve is Get without the creation: a request without a live session
// gets an empty one that becomes a session, with its cookie set on w, only
// when a handler stores a value. So probes, scrapes and anonymous reads
// cost no session, no random id, no Set-Cookie and no eviction.
func (m *SessionManager) resolve(w http.ResponseWriter, r *http.Request) *Session {
	if c, err := r.Cookie(m.cookie); err == nil {
		if s, ok := m.Lookup(c.Value); ok {
			return s
		}
	}
	s := &Session{values: make(map[string]string)}
	s.register = func() {
		m.add(s)
		http.SetCookie(w, m.newCookie(s.ID))
	}
	return s
}

// newCookie builds the session cookie. SameSite=Lax keeps the cookie off
// cross-site subrequests and cross-site POSTs, so the state-changing
// routes are not trivially CSRF-able; top-level navigations still carry it.
func (m *SessionManager) newCookie(id string) *http.Cookie {
	c := &http.Cookie{
		Name:     m.cookie,
		Value:    id,
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
	}
	if ttl := m.TTL(); ttl > 0 {
		c.MaxAge = int(ttl.Seconds())
	}
	return c
}

// add gives s a fresh id and inserts it, evicting the least recently
// accessed session when the cap is reached.
func (m *SessionManager) add(s *Session) {
	s.ID = newSessionID()
	s.lastAccess = m.now()
	m.mu.Lock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		m.evictOldestLocked()
	}
	m.sessions[s.ID] = s
	active, created := m.active, m.created
	n := len(m.sessions)
	m.mu.Unlock()
	if created != nil {
		created.Inc()
	}
	if active != nil {
		active.Set(float64(n))
	}
}

// evictOldestLocked removes the least recently accessed session. Callers
// hold m.mu. The linear scan is fine at realistic caps (tens of
// thousands); the cap exists to bound memory, not to be hit continuously.
func (m *SessionManager) evictOldestLocked() {
	var oldestID string
	var oldest time.Time
	for id, s := range m.sessions {
		if at := s.LastAccess(); oldestID == "" || at.Before(oldest) {
			oldestID, oldest = id, at
		}
	}
	if oldestID != "" {
		delete(m.sessions, oldestID)
		if m.evicted != nil {
			m.evicted.Inc()
		}
	}
}

// Lookup returns a live session by id without creating one. Expired
// sessions are invisible (and reclaimed in place). A hit counts as an
// access for TTL purposes.
func (m *SessionManager) Lookup(id string) (*Session, bool) {
	now := m.now()
	m.mu.RLock()
	s, ok := m.sessions[id]
	ttl := m.ttl
	m.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if ttl > 0 && now.Sub(s.LastAccess()) > ttl {
		m.remove(id, s)
		return nil, false
	}
	s.touch(now)
	return s, true
}

// remove deletes id if it still maps to s, counting it as expired.
func (m *SessionManager) remove(id string, s *Session) {
	m.mu.Lock()
	cur, ok := m.sessions[id]
	if ok && cur == s {
		delete(m.sessions, id)
	}
	active, expired := m.active, m.expired
	n := len(m.sessions)
	m.mu.Unlock()
	if ok && cur == s {
		if expired != nil {
			expired.Inc()
		}
		if active != nil {
			active.Set(float64(n))
		}
	}
}

// Sweep removes every expired session and returns how many it reclaimed.
// A no-op when no TTL is configured.
func (m *SessionManager) Sweep() int {
	now := m.now()
	m.mu.Lock()
	ttl := m.ttl
	if ttl <= 0 {
		m.mu.Unlock()
		return 0
	}
	var removed int
	for id, s := range m.sessions {
		if now.Sub(s.LastAccess()) > ttl {
			delete(m.sessions, id)
			removed++
		}
	}
	active, expired := m.active, m.expired
	n := len(m.sessions)
	m.mu.Unlock()
	if removed > 0 {
		if expired != nil {
			expired.Add(uint64(removed))
		}
		if active != nil {
			active.Set(float64(n))
		}
	}
	return removed
}

// StartSweeper runs Sweep every interval on a background goroutine until
// the returned stop function is called. Stop is idempotent and waits for
// an in-flight sweep to finish.
func (m *SessionManager) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Sweep()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// Len returns the number of live sessions (including not-yet-swept expired
// ones).
func (m *SessionManager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id would
		// still be functional, just predictable, so panic loudly instead.
		panic("webapp: crypto/rand failure: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
