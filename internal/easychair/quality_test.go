package easychair

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// submitReviews drives the full review flow once with a good review (as
// pc) and once with an invalid one, so the quality series have both
// outcomes to aggregate.
func submitReviews(t *testing.T, srvURL string) {
	t.Helper()
	author := newClient(t, srvURL)
	author.login("ada", "author", "0")
	if status, body := author.post("/papers", url.Values{"title": {"Paper"}, "authors": {"A"}}); status != http.StatusCreated {
		t.Fatalf("submit: %d %s", status, body)
	}
	chair := newClient(t, srvURL)
	chair.login("chair", "chair", "3")
	if status, body := chair.post("/papers/1/assign", url.Values{"reviewer": {"grace"}}); status != http.StatusCreated {
		t.Fatalf("assign: %d %s", status, body)
	}
	reviewer := newClient(t, srvURL)
	reviewer.login("grace", "pc", "2")
	if status, body := reviewer.post("/papers/1/reviews", goodReview()); status != http.StatusCreated {
		t.Fatalf("review: %d %s", status, body)
	}
	bad := goodReview()
	bad.Set("overall_evaluation", "9")
	if status, _ := reviewer.post("/papers/1/reviews", bad); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad review status = %d, want 422", status)
	}
}

func TestDebugQualityEndpoint(t *testing.T) {
	_, srv := startApp(t)
	c := newClient(t, srv.URL)

	// Before any validation the endpoint serves an empty, valid report.
	status, body := c.get("/debug/quality")
	if status != http.StatusOK {
		t.Fatalf("/debug/quality: %d %s", status, body)
	}
	var rep obs.SeriesReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if rep.Name != "dq_score" || len(rep.Series) != 0 {
		t.Fatalf("empty report = %+v, want dq_score with no series", rep)
	}

	submitReviews(t, srv.URL)

	_, body = c.get("/debug/quality")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("invalid JSON after reviews: %v\n%s", err, body)
	}
	byChar := map[string]obs.SeriesSnapshot{}
	for _, s := range rep.Series {
		if s.Labels["context"] != "pc" {
			t.Errorf("context = %q, want pc (the submitting role)", s.Labels["context"])
		}
		byChar[s.Labels["characteristic"]] = s
	}
	prec, ok := byChar[string(iso25012.Precision)]
	if !ok || prec.Current == nil {
		t.Fatalf("no Precision series: %s", body)
	}
	// Two reviews × two precision checks; the bad one fails once.
	if prec.Current.Count != 4 || prec.Current.Failures != 1 {
		t.Errorf("Precision window = %+v, want 4 checks 1 failure", prec.Current)
	}
	if prec.EWMA == nil {
		t.Error("EWMA trend missing from a populated series")
	}
	if prec.IntervalSeconds != 60 {
		t.Errorf("interval = %g, want 60", prec.IntervalSeconds)
	}
}

func TestMetricsExposeQualitySeries(t *testing.T) {
	_, srv := startApp(t)
	submitReviews(t, srv.URL)

	c := newClient(t, srv.URL)
	status, body := c.get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	for _, want := range []string{
		`# TYPE dq_score gauge`,
		`dq_score{characteristic="Precision",context="pc",window="current"}`,
		`dq_score{characteristic="Completeness",context="pc",window="current"} 1`,
		`dq_check_failures{characteristic="Precision",context="pc",window="current"} 1`,
		`dq_score_trend{characteristic="Precision",context="pc",stat="ewma"}`,
		`dq_check_seconds_bucket{check="check_precision",le="+Inf"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A window nobody populated renders NaN, not a stale number.
	if !strings.Contains(body, `window="previous"} NaN`) {
		t.Error(`/metrics should render empty previous windows as NaN`)
	}
}

// TestDQMetricsAgreeWithScoreSeries: /dq/metrics, the thresholds and the
// dq_score family read one store, so they report the same number — the
// mean check score — and a characteristic nobody measured shows no mean.
func TestDQMetricsAgreeWithScoreSeries(t *testing.T) {
	_, srv := startApp(t)
	submitReviews(t, srv.URL)
	c := newClient(t, srv.URL)

	_, prom := c.get("/metrics")
	// Four Precision checks, one failed: 3/4.
	if !strings.Contains(prom, "\n"+`dq_score{characteristic="Precision",context="pc",window="current"} 0.75`+"\n") {
		t.Errorf("/metrics lacks the Precision window mean 0.75")
	}
	if !strings.Contains(prom, "\ndq_threshold_violations 1\n") {
		t.Errorf("/metrics lacks dq_threshold_violations 1")
	}
	if strings.Contains(prom, "dq_measure_") {
		t.Errorf("/metrics still exports a dq_measure_ family")
	}

	_, body := c.get("/dq/metrics")
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		lines[strings.Fields(line)[0]] = line
		if strings.Contains(line, " n=0 mean=") {
			t.Errorf("unmeasured characteristic shows a mean: %q", line)
		}
	}
	if !strings.Contains(lines["dq/Precision"], "mean=0.750") {
		t.Errorf("dq/Precision line = %q, want mean=0.750 (the dq_score number)", lines["dq/Precision"])
	}
	if !strings.HasSuffix(lines["dq/Traceability"], " n=0") {
		t.Errorf("dq/Traceability line = %q, want n=0 and no mean", lines["dq/Traceability"])
	}

	_, body = c.get("/dq/violations")
	if !strings.Contains(body, `measure "dq/Precision": mean 0.750 below threshold 0.800`) {
		t.Errorf("/dq/violations = %q, want dq/Precision below threshold at 0.750", body)
	}
}
