// Package webapp is a minimal web application substrate built on net/http:
// a method-aware router with path parameters, cookie sessions, an in-memory
// table store and composable middleware. It exists so the case-study
// application (cmd/easychair) can run the paper's DQ software requirements
// end to end without any dependency outside the standard library.
package webapp

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Context carries one request through a handler: the response writer, the
// request, extracted path parameters and the session.
type Context struct {
	// W and R are the raw response writer and request.
	W http.ResponseWriter
	R *http.Request
	// Params holds path parameters, e.g. {"id": "42"} for /reviews/:id.
	Params map[string]string
	// Pattern is the registered route pattern that matched, e.g.
	// "/reviews/:id/edit". Middleware uses it as a bounded-cardinality
	// route label.
	Pattern string
	// Session is the request's session, never nil. A request without a
	// live session cookie gets an empty one, which becomes a session, and
	// sets its cookie, only when the handler stores a value in it.
	Session *Session
}

// Param returns a path parameter by name, "" when absent.
func (c *Context) Param(name string) string { return c.Params[name] }

// FormValue returns a POST/query form value.
func (c *Context) FormValue(name string) string { return c.R.FormValue(name) }

// Text writes a plain-text response with the given status.
func (c *Context) Text(status int, format string, args ...any) {
	c.W.Header().Set("Content-Type", "text/plain; charset=utf-8")
	c.W.WriteHeader(status)
	fmt.Fprintf(c.W, format, args...)
}

// HTML writes an HTML response with the given status.
func (c *Context) HTML(status int, html string) {
	c.W.Header().Set("Content-Type", "text/html; charset=utf-8")
	c.W.WriteHeader(status)
	fmt.Fprint(c.W, html)
}

// HandlerFunc handles one request.
type HandlerFunc func(*Context)

// Middleware wraps a handler with cross-cutting behaviour.
type Middleware func(HandlerFunc) HandlerFunc

// route is one registered pattern.
type route struct {
	method   string
	pattern  string
	segments []string // literal or ":param"
	handler  HandlerFunc
}

// Router dispatches requests by method and path pattern. Patterns use
// ":name" segments for parameters: "/reviews/:id/edit". Unmatched paths
// get a plain 404, and a path matched under another method a 405; both
// bypass the middleware.
type Router struct {
	routes   []route
	mws      []Middleware
	sessions *SessionManager
}

// NewRouter creates an empty router with its own session manager.
func NewRouter() *Router {
	return &Router{sessions: NewSessionManager("webapp_session")}
}

// Sessions returns the router's session manager.
func (r *Router) Sessions() *SessionManager { return r.sessions }

// Use appends middleware applied to every handler, outermost first.
func (r *Router) Use(mw ...Middleware) { r.mws = append(r.mws, mw...) }

// Handle registers a handler for a method and pattern.
func (r *Router) Handle(method, pattern string, h HandlerFunc) {
	segs := splitPath(pattern)
	r.routes = append(r.routes, route{method: method, pattern: pattern, segments: segs, handler: h})
}

// GET registers a GET handler.
func (r *Router) GET(pattern string, h HandlerFunc) { r.Handle(http.MethodGet, pattern, h) }

// POST registers a POST handler.
func (r *Router) POST(pattern string, h HandlerFunc) { r.Handle(http.MethodPost, pattern, h) }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	segs := splitPath(req.URL.Path)
	var allowed []string
	for _, rt := range r.routes {
		params, ok := match(rt.segments, segs)
		if !ok {
			continue
		}
		if rt.method != req.Method {
			allowed = append(allowed, rt.method)
			continue
		}
		c := &Context{W: w, R: req, Params: params, Pattern: rt.pattern}
		c.Session = r.sessions.resolve(w, req)
		h := rt.handler
		for i := len(r.mws) - 1; i >= 0; i-- {
			h = r.mws[i](h)
		}
		h(c)
		return
	}
	if len(allowed) > 0 {
		sort.Strings(allowed)
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	http.Error(w, "not found", http.StatusNotFound)
}

func splitPath(p string) []string {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

func match(pattern, path []string) (map[string]string, bool) {
	if len(pattern) != len(path) {
		return nil, false
	}
	params := map[string]string{}
	for i, seg := range pattern {
		if strings.HasPrefix(seg, ":") {
			params[seg[1:]] = path[i]
			continue
		}
		if seg != path[i] {
			return nil, false
		}
	}
	return params, true
}
