package webapp

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

func TestRouterPathParams(t *testing.T) {
	r := NewRouter()
	r.GET("/reviews/:id/edit", func(c *Context) {
		c.Text(http.StatusOK, "edit %s", c.Param("id"))
	})
	srv := httptest.NewServer(r)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/reviews/42/edit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "edit 42" {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
}

func TestRouterNotFoundAndMethodNotAllowed(t *testing.T) {
	r := NewRouter()
	r.GET("/only-get", func(c *Context) { c.Text(200, "ok") })
	srv := httptest.NewServer(r)
	defer srv.Close()

	resp, _ := http.Get(srv.URL + "/missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing path: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, _ = http.Post(srv.URL+"/only-get", "text/plain", strings.NewReader(""))
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q", allow)
	}
	resp.Body.Close()
}

func TestRouterLiteralVsParamSegments(t *testing.T) {
	r := NewRouter()
	r.GET("/a/b", func(c *Context) { c.Text(200, "literal") })
	r.GET("/a/:x", func(c *Context) { c.Text(200, "param %s", c.Param("x")) })
	srv := httptest.NewServer(r)
	defer srv.Close()

	get := func(p string) string {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if got := get("/a/b"); got != "literal" {
		t.Fatalf("literal route = %q", got)
	}
	if got := get("/a/zzz"); got != "param zzz" {
		t.Fatalf("param route = %q", got)
	}
}

func TestSessionsPersistAcrossRequests(t *testing.T) {
	r := NewRouter()
	r.GET("/set", func(c *Context) {
		c.Session.Set("user", "alice")
		c.Text(200, "set")
	})
	r.GET("/get", func(c *Context) {
		c.Text(200, "user=%s", c.Session.Get("user"))
	})
	srv := httptest.NewServer(r)
	defer srv.Close()

	jar := newCookieJar(t)
	client := &http.Client{Jar: jar}
	resp, err := client.Get(srv.URL + "/set")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = client.Get(srv.URL + "/get")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "user=alice" {
		t.Fatalf("session lost: %q", body)
	}
	if r.Sessions().Len() != 1 {
		t.Fatalf("sessions = %d", r.Sessions().Len())
	}
}

func newCookieJar(t *testing.T) http.CookieJar {
	t.Helper()
	jar, err := newJar()
	if err != nil {
		t.Fatal(err)
	}
	return jar
}

// newJar builds a minimal in-memory cookie jar (net/http/cookiejar without
// the public suffix list).
func newJar() (http.CookieJar, error) {
	return &memJar{cookies: map[string][]*http.Cookie{}}, nil
}

type memJar struct {
	mu      sync.Mutex
	cookies map[string][]*http.Cookie
}

func (j *memJar) SetCookies(u *url.URL, cookies []*http.Cookie) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cookies[u.Host] = append(j.cookies[u.Host], cookies...)
}

func (j *memJar) Cookies(u *url.URL) []*http.Cookie {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cookies[u.Host]
}

func TestSessionValueOps(t *testing.T) {
	s := &Session{ID: "x", values: map[string]string{}}
	s.Set("k", "v")
	if s.Get("k") != "v" {
		t.Fatal("get")
	}
	s.Delete("k")
	if s.Get("k") != "" {
		t.Fatal("delete")
	}
}

func TestSessionManagerLookup(t *testing.T) {
	m := NewSessionManager("c")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/", nil)
	s := m.Get(rec, req)
	got, ok := m.Lookup(s.ID)
	if !ok || got != s {
		t.Fatal("lookup failed")
	}
	if _, ok := m.Lookup("ghost"); ok {
		t.Fatal("phantom session")
	}
	// Unknown cookie value creates a fresh session.
	req2 := httptest.NewRequest("GET", "/", nil)
	req2.AddCookie(&http.Cookie{Name: "c", Value: "stale"})
	s2 := m.Get(httptest.NewRecorder(), req2)
	if s2.ID == "stale" {
		t.Fatal("stale session resurrected")
	}
}

func TestMiddlewareOrderAndRecover(t *testing.T) {
	r := NewRouter()
	var order []string
	mk := func(name string) Middleware {
		return func(next HandlerFunc) HandlerFunc {
			return func(c *Context) {
				order = append(order, name)
				next(c)
			}
		}
	}
	r.Use(mk("outer"), mk("inner"))
	r.GET("/ok", func(c *Context) { c.Text(200, "ok") })
	r.Use(Recover(log.New(io.Discard, "", 0), nil))
	r.GET("/boom", func(c *Context) { panic("kaboom") })
	srv := httptest.NewServer(r)
	defer srv.Close()

	resp, _ := http.Get(srv.URL + "/ok")
	resp.Body.Close()
	if strings.Join(order, ",") != "outer,inner" {
		t.Fatalf("order = %v", order)
	}
	resp, _ = http.Get(srv.URL + "/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestTableCRUD(t *testing.T) {
	tab := NewTable()
	id1 := tab.Insert(Row{"a": "1"})
	id2 := tab.Insert(Row{"a": "2"})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d", id1, id2)
	}
	r, ok := tab.Get(id1)
	if !ok || r["a"] != "1" {
		t.Fatal("get")
	}
	// Mutating the returned row must not affect the store.
	r["a"] = "mutated"
	r2, _ := tab.Get(id1)
	if r2["a"] != "1" {
		t.Fatal("Get leaked internal row")
	}
	if !tab.Update(id1, Row{"a": "9"}) {
		t.Fatal("update")
	}
	if tab.Update(999, Row{}) {
		t.Fatal("update of missing row succeeded")
	}
	r3, _ := tab.Get(id1)
	if r3["a"] != "9" {
		t.Fatal("update lost")
	}
	sel := tab.Select(func(id int64, r Row) bool { return r["a"] == "9" })
	if len(sel) != 1 {
		t.Fatalf("select = %v", sel)
	}
	if ids := tab.IDs(); len(ids) != 2 || ids[0] != 1 {
		t.Fatalf("ids = %v", ids)
	}
	if !tab.Delete(id2) || tab.Delete(id2) {
		t.Fatal("delete semantics")
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestStoreTables(t *testing.T) {
	s := NewStore()
	a := s.Table("reviews")
	b := s.Table("reviews")
	if a != b {
		t.Fatal("table identity")
	}
	s.Table("papers")
	names := s.Names()
	if len(names) != 2 || names[0] != "papers" || names[1] != "reviews" {
		t.Fatalf("names = %v", names)
	}
}

func TestTableConcurrentInserts(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			tab.Insert(Row{"n": fmt.Sprint(n)})
		}(i)
	}
	wg.Wait()
	if tab.Len() != 32 {
		t.Fatalf("len = %d", tab.Len())
	}
	ids := tab.IDs()
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
}
