package easychair

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// TestLoginRejectsBadLevel: non-numeric and negative clearance levels must
// be rejected at the door, not silently coerced to 0.
func TestLoginRejectsBadLevel(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)
	for _, level := range []string{"abc", "2x", "-1", "1.5"} {
		status, body := c.post("/login", url.Values{
			"user": {"mallory"}, "role": {"pc"}, "level": {level},
		})
		if status != http.StatusBadRequest {
			t.Errorf("level %q: got %d %q, want 400", level, status, body)
		}
	}
	// A session that never passed validation must stay unauthenticated.
	if status, body := c.get("/"); status != http.StatusOK || !strings.Contains(body, "user= level=0") {
		t.Errorf("failed login left identity behind: %d %q", status, body)
	}
}

func TestLoginRejectsUnknownRole(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)
	status, body := c.post("/login", url.Values{
		"user": {"mallory"}, "role": {"superadmin"}, "level": {"2"},
	})
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown role") {
		t.Errorf("got %d %q, want 400 unknown role", status, body)
	}
	// The known roles still work, including an empty role.
	for _, role := range []string{"author", "reviewer", "pc", "chair", ""} {
		status, body := c.post("/login", url.Values{
			"user": {"u"}, "role": {role}, "level": {"1"},
		})
		if status != http.StatusOK {
			t.Errorf("role %q: got %d %q, want 200", role, status, body)
		}
	}
}

func TestLoginDefaultsEmptyLevelToZero(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)
	if status, _ := c.post("/login", url.Values{"user": {"ada"}, "role": {"author"}}); status != http.StatusOK {
		t.Fatalf("login without level: %d", status)
	}
	if _, body := c.get("/"); !strings.Contains(body, "user=ada level=0") {
		t.Errorf("home = %q, want level=0", body)
	}
}

// TestTamperedSessionLevelUnauthenticates plants a corrupted level value
// directly in the session store — as an attacker with a session-fixation or
// a future storage bug might — and checks the identity is rejected rather
// than downgraded to a still-privileged level 0.
func TestTamperedSessionLevelUnauthenticates(t *testing.T) {
	app, srv := startApp(t)

	author := newClient(t, srv.URL)
	author.login("ada", "author", "0")
	author.post("/papers", url.Values{"title": {"T"}})
	reviewer := newClient(t, srv.URL)
	reviewer.login("grace", "pc", "2")
	if status, body := reviewer.post("/papers/1/reviews", goodReview()); status != http.StatusCreated {
		t.Fatalf("review: %d %q", status, body)
	}

	// Corrupt grace's stored clearance.
	tampered := false
	for _, u := range []*url.URL{mustParse(t, srv.URL)} {
		for _, ck := range reviewer.http.Jar.Cookies(u) {
			if s, ok := app.Router.Sessions().Lookup(ck.Value); ok {
				s.Set("level", "99zz")
				tampered = true
			}
		}
	}
	if !tampered {
		t.Fatal("could not locate reviewer session to tamper with")
	}

	// The tampered identity must be treated as not logged in (401), not as
	// a level-0 user (403) — and certainly not as level 2.
	if status, body := reviewer.get("/reviews/1"); status != http.StatusUnauthorized {
		t.Errorf("tampered session read review: %d %q, want 401", status, body)
	}
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestCookielessRequestsKeepUsersLoggedIn fills a two-session cap with one
// login, then sends cookie-less probes. Only a handler that stores a value
// creates a session, so no probe gets a cookie or a session, and none can
// evict the logged-in user.
func TestCookielessRequestsKeepUsersLoggedIn(t *testing.T) {
	app, err := NewApp()
	if err != nil {
		t.Fatal(err)
	}
	sessions := app.Router.Sessions()
	sessions.SetMaxSessions(2)
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		app.Router.ServeHTTP(rec, req)
		return rec
	}

	login := httptest.NewRequest(http.MethodPost, "/login", strings.NewReader("user=ada&role=pc&level=2"))
	login.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := serve(login)
	cookies := rec.Result().Cookies()
	if rec.Code != http.StatusOK || len(cookies) != 1 {
		t.Fatalf("login = %d with %d cookies", rec.Code, len(cookies))
	}
	for i := 0; i < 5; i++ {
		for _, path := range []string{"/healthz", "/no-such-page"} {
			if rec := serve(httptest.NewRequest(http.MethodGet, path, nil)); len(rec.Result().Cookies()) != 0 {
				t.Fatalf("cookie-less GET %s #%d got Set-Cookie %v", path, i+1, rec.Result().Cookies())
			}
		}
	}
	if n := sessions.Len(); n != 1 {
		t.Fatalf("sessions = %d after cookie-less probes, want 1", n)
	}
	home := httptest.NewRequest(http.MethodGet, "/", nil)
	home.AddCookie(cookies[0])
	if body := serve(home).Body.String(); !strings.Contains(body, "user=ada level=2") {
		t.Fatalf("home page after probes = %q, want the user still logged in", body)
	}
}
