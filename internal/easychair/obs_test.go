package easychair

import (
	"net/url"
	"strings"
	"testing"
)

// TestPrometheusEndpoint drives one full review submission and checks that
// /metrics renders valid Prometheus text exposition containing the request
// latency histogram, the status-aware request counter, the enforcer's
// per-characteristic DQ check counters and the exported DQ measure
// aggregates.
func TestPrometheusEndpoint(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)
	c.login("grace", "pc", "2")
	if status, body := c.post("/papers", url.Values{"title": {"T"}}); status != 201 {
		t.Fatalf("paper: %d %s", status, body)
	}
	if status, body := c.post("/papers/1/reviews", goodReview()); status != 201 {
		t.Fatalf("review: %d %s", status, body)
	}
	// One failing submission so both pass and fail counters exist.
	if status, _ := c.post("/papers/1/reviews", url.Values{"first_name": {"x"}}); status != 422 {
		t.Fatalf("incomplete review not rejected: %d", status)
	}

	status, body := c.get("/metrics")
	if status != 200 {
		t.Fatalf("/metrics: %d", status)
	}
	for _, want := range []string{
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{route="/papers/:id/reviews",le="+Inf"}`,
		`http_requests_total{method="POST",route="/papers/:id/reviews",status="201"}`,
		`http_requests_total{method="POST",route="/papers/:id/reviews",status="422"}`,
		"# TYPE dq_checks_total counter",
		`dq_checks_total{characteristic="Completeness",check="check_completeness",result="pass"}`,
		`dq_checks_total{characteristic="Completeness",check="check_completeness",result="fail"}`,
		"# TYPE dq_threshold_violations gauge",
		`characteristic="Precision"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

// TestAppsKeepTheirOwnMetrics: each app serves a registry of its own, so
// a review posted to one app leaves no DQ check samples on another.
func TestAppsKeepTheirOwnMetrics(t *testing.T) {
	_, first := startApp(t)
	_, second := startApp(t)
	c := newClient(t, first.URL)
	c.login("grace", "pc", "2")
	if status, body := c.post("/papers", url.Values{"title": {"T"}}); status != 201 {
		t.Fatalf("paper: %d %s", status, body)
	}
	if status, body := c.post("/papers/1/reviews", goodReview()); status != 201 {
		t.Fatalf("review: %d %s", status, body)
	}

	_, body := c.get("/metrics")
	for _, want := range []string{
		// The review's two precision checks.
		`dq_check_seconds_count{check="check_precision"} 2`,
		// A check's fail counter exists from its first execution on.
		`dq_checks_total{characteristic="Precision",check="check_precision",result="fail"} 0`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("first app's /metrics missing %q\n---\n%s", want, body)
		}
	}
	_, body = newClient(t, second.URL).get("/metrics")
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "dq_check_seconds") || strings.HasPrefix(line, "dq_checks_total") {
			t.Fatalf("second app's /metrics has a DQ check sample: %s", line)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)
	status, body := c.get("/healthz")
	if status != 200 {
		t.Fatalf("/healthz: %d", status)
	}
	if !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"requirements":4`) {
		t.Errorf("unexpected health body: %s", body)
	}
}

// TestDebugSpans checks the span trees of handled requests are served,
// including the enforcer child span nested under the request span.
func TestDebugSpans(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)
	c.login("grace", "pc", "2")
	c.post("/papers", url.Values{"title": {"T"}})
	c.post("/papers/1/reviews", goodReview())

	status, body := c.get("/debug/spans")
	if status != 200 {
		t.Fatalf("/debug/spans: %d", status)
	}
	if !strings.Contains(body, "POST /papers/:id/reviews") {
		t.Errorf("spans missing request span:\n%s", body)
	}
	if !strings.Contains(body, "enforcer.check_input") {
		t.Errorf("spans missing nested enforcer span:\n%s", body)
	}
}
