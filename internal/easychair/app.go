package easychair

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/modeldriven/dqwebre/internal/codegen"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metrics"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/transform"
	"github.com/modeldriven/dqwebre/internal/webapp"
)

// App is the runnable conference-management application of the case study.
// Its review-submission flow is guarded by a dqruntime.Enforcer assembled
// from the DQ_WebRE model via the DQR→DQSR transformation, so the four DQ
// requirements captured in Fig. 6 are enforced on every request:
//
//	Completeness    — incomplete review forms are rejected (422)
//	Precision       — scores outside their constraint ranges are rejected
//	Traceability    — stored_by/stored_date/last_modified_* captured; audit
//	                  trail served at /reviews/{id}/audit
//	Confidentiality — review reads require sufficient clearance
type App struct {
	// Router serves the application; mount it on any http.Server.
	Router *webapp.Router

	store    *webapp.Store
	enforcer *dqruntime.Enforcer
	// collector owns the windowed DQ score series (one series per
	// characteristic × submitter role), fed by check-level attribution,
	// served as dq_score/dq_check_failures on /metrics and as JSON with
	// trends on /debug/quality, and judged by the thresholds behind
	// /dq/metrics and /dq/violations.
	collector *metrics.Collector
	// reg and tracer are the app's operational observability: reg backs
	// /metrics (Prometheus text format), tracer backs /debug/spans.
	reg    *obs.Registry
	tracer *obs.Tracer
	// reviewForm is the HTML form generated from the model at startup.
	reviewForm string
}

// ReviewFields lists the form fields of the "New Review" page, the union of
// the case study's two Contents.
var ReviewFields = []string{
	"first_name", "last_name", "email_address",
	"overall_evaluation", "reviewer_confidence",
}

// NewApp builds the full pipeline: case-study model → validation → DQSR →
// enforcer → HTTP application.
func NewApp() (*App, error) {
	elements, err := BuildModel()
	if err != nil {
		return nil, fmt.Errorf("easychair: building model: %w", err)
	}
	if rep := elements.Model.Validate(); !rep.OK() {
		return nil, fmt.Errorf("easychair: model not well-formed: %v", rep.Errors())
	}
	dqsr, _, err := transform.RunDQR2DQSR(elements.Model)
	if err != nil {
		return nil, fmt.Errorf("easychair: DQR2DQSR: %w", err)
	}
	enforcer, err := dqruntime.BuildFromDQSR(dqsr)
	if err != nil {
		return nil, fmt.Errorf("easychair: assembling enforcer: %w", err)
	}
	collector := metrics.NewCollector()
	var chs []iso25012.Characteristic
	for _, r := range enforcer.Requirements() {
		chs = append(chs, r.Dimension)
	}
	if err := collector.RegisterCharacteristics(chs...); err != nil {
		return nil, fmt.Errorf("easychair: registering measures: %w", err)
	}
	// Monitoring policy: each characteristic's mean check score over the
	// last hour, across submitter roles and accepted or rejected reviews,
	// must stay at or above 0.8.
	for _, ch := range chs {
		if err := collector.AddThreshold(metrics.Threshold{
			Measure: metrics.MeasureNameFor(ch), MinMean: 0.8,
		}); err != nil {
			return nil, err
		}
	}
	form, err := codegen.HTMLForm(elements.Model, "Add all data as result of review")
	if err != nil {
		return nil, fmt.Errorf("easychair: generating review form: %w", err)
	}
	// Operational observability: the app's own registry behind /metrics,
	// and a tracer whose ring buffer backs /debug/spans.
	reg := obs.NewRegistry()
	// The enforcer attributes every check execution (outcome, score,
	// latency, submitter role) into the collector's series and the app's
	// check counters via the stock observer: the one place a review's DQ
	// results are recorded.
	enforcer.AttachObserver(dqruntime.NewSeriesObserver(collector.Scores(), reg))
	app := &App{
		Router:     webapp.NewRouter(),
		store:      webapp.NewStore(),
		enforcer:   enforcer,
		collector:  collector,
		reg:        reg,
		tracer:     obs.NewTracer(256),
		reviewForm: form,
	}
	// Metrics outermost so its bookkeeping observes the 500 that Recover
	// writes for panicking handlers.
	app.Router.Use(webapp.Metrics(reg, app.tracer))
	app.routes()
	return app, nil
}

// Registry exposes the operational metric registry backing /metrics.
func (a *App) Registry() *obs.Registry { return a.reg }

// Enforcer exposes the DQ enforcer (for tests and diagnostics).
func (a *App) Enforcer() *dqruntime.Enforcer { return a.enforcer }

// Store exposes the data store (for tests).
func (a *App) Store() *webapp.Store { return a.store }

func (a *App) routes() {
	r := a.Router
	r.GET("/", a.handleHome)
	r.POST("/login", a.handleLogin)
	r.GET("/papers", a.handleListPapers)
	r.POST("/papers", a.handleSubmitPaper)
	r.POST("/papers/:id/assign", a.handleAssign)
	r.POST("/papers/:id/reviews", a.handleAddReview)
	r.GET("/reviews/:id", a.handleGetReview)
	r.POST("/reviews/:id", a.handleEditReview)
	r.GET("/reviews/:id/audit", a.handleAudit)
	r.GET("/dq/requirements", a.handleDQRequirements)
	r.GET("/dq/assess/:id", a.handleAssess)
	r.GET("/dq/metrics", a.handleMetrics)
	r.GET("/dq/violations", a.handleViolations)
	r.GET("/papers/:id/reviews/new", a.handleNewReviewForm)
	r.GET("/metrics", a.handlePrometheus)
	r.GET("/healthz", a.handleHealthz)
	r.GET("/debug/spans", a.handleSpans)
	r.GET("/debug/quality", a.handleQuality)
}

// ValidRoles are the identities the case study recognises at login.
var ValidRoles = map[string]bool{"author": true, "reviewer": true, "pc": true, "chair": true}

// currentUser resolves the session's identity. A stored clearance level
// that does not parse means the session state was tampered with (login
// only ever stores validated integers), so the whole identity is rejected
// rather than silently downgraded to level 0 — which would still pass the
// user != "" checks and reach level-0 resources.
func (a *App) currentUser(c *webapp.Context) (user string, level int) {
	user = c.Session.Get("user")
	if user == "" {
		return "", 0
	}
	stored := c.Session.Get("level")
	if stored == "" {
		return user, 0
	}
	level, err := strconv.Atoi(stored)
	if err != nil || level < 0 {
		return "", 0
	}
	return user, level
}

func (a *App) handleHome(c *webapp.Context) {
	user, level := a.currentUser(c)
	c.Text(http.StatusOK, "EasyChair (DQ_WebRE case study)\nuser=%s level=%d\npapers=%d reviews=%d\n",
		user, level, a.store.Table("papers").Len(), a.store.Table("reviews").Len())
}

// handleLogin sets the session's user, role and clearance level. A real
// deployment would authenticate; the case study only needs identity for
// traceability and clearance for confidentiality.
func (a *App) handleLogin(c *webapp.Context) {
	user := strings.TrimSpace(c.FormValue("user"))
	if user == "" {
		c.Text(http.StatusBadRequest, "user is required\n")
		return
	}
	role := strings.TrimSpace(c.FormValue("role"))
	if role != "" && !ValidRoles[role] {
		c.Text(http.StatusBadRequest, "unknown role %q\n", role)
		return
	}
	level := 0
	if v := strings.TrimSpace(c.FormValue("level")); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			c.Text(http.StatusBadRequest, "level must be a non-negative integer\n")
			return
		}
		level = n
	}
	c.Session.Set("user", user)
	c.Session.Set("role", role)
	c.Session.Set("level", strconv.Itoa(level))
	c.Text(http.StatusOK, "logged in as %s\n", user)
}

func (a *App) handleSubmitPaper(c *webapp.Context) {
	user, _ := a.currentUser(c)
	if user == "" {
		c.Text(http.StatusUnauthorized, "log in first\n")
		return
	}
	title := strings.TrimSpace(c.FormValue("title"))
	if title == "" {
		c.Text(http.StatusBadRequest, "title is required\n")
		return
	}
	id := a.store.Table("papers").Insert(webapp.Row{
		"title":   title,
		"authors": c.FormValue("authors"),
		"by":      user,
	})
	c.Text(http.StatusCreated, "paper %d submitted\n", id)
}

func (a *App) handleListPapers(c *webapp.Context) {
	papers := a.store.Table("papers")
	var b strings.Builder
	for _, id := range papers.IDs() {
		row, _ := papers.Get(id)
		fmt.Fprintf(&b, "%d\t%s\t%s\n", id, row["title"], row["authors"])
	}
	c.Text(http.StatusOK, "%s", b.String())
}

func (a *App) handleAssign(c *webapp.Context) {
	user, _ := a.currentUser(c)
	if c.Session.Get("role") != "chair" {
		c.Text(http.StatusForbidden, "only the chair assigns reviewers\n")
		return
	}
	paperID, err := strconv.ParseInt(c.Param("id"), 10, 64)
	if err != nil {
		c.Text(http.StatusBadRequest, "bad paper id\n")
		return
	}
	if _, ok := a.store.Table("papers").Get(paperID); !ok {
		c.Text(http.StatusNotFound, "no such paper\n")
		return
	}
	reviewer := strings.TrimSpace(c.FormValue("reviewer"))
	if reviewer == "" {
		c.Text(http.StatusBadRequest, "reviewer is required\n")
		return
	}
	a.store.Table("assignments").Insert(webapp.Row{
		"paper":    c.Param("id"),
		"reviewer": reviewer,
		"by":       user,
	})
	c.Text(http.StatusCreated, "assigned %s to paper %d\n", reviewer, paperID)
}

// handleAddReview is the paper's "Add new review to submission" web process
// with DQ enforcement: input checks first (Completeness, Precision), then
// storage with metadata capture (Traceability, Confidentiality).
func (a *App) handleAddReview(c *webapp.Context) {
	user, _ := a.currentUser(c)
	if user == "" {
		c.Text(http.StatusUnauthorized, "log in first\n")
		return
	}
	paperID, err := strconv.ParseInt(c.Param("id"), 10, 64)
	if err != nil {
		c.Text(http.StatusBadRequest, "bad paper id\n")
		return
	}
	if _, ok := a.store.Table("papers").Get(paperID); !ok {
		c.Text(http.StatusNotFound, "no such paper\n")
		return
	}

	record := dqruntime.Record{}
	for _, f := range ReviewFields {
		record[f] = c.FormValue(f)
	}
	report := a.enforcer.CheckInputLabeled(c.R.Context(), record, roleLabel(c))
	if !report.Passed() {
		var b strings.Builder
		b.WriteString("review rejected by DQ checks:\n")
		for _, f := range report.Failures() {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		c.Text(http.StatusUnprocessableEntity, "%s", b.String())
		return
	}

	row := webapp.Row{"paper": c.Param("id")}
	for k, v := range record {
		row[k] = v
	}
	id := a.store.Table("reviews").Insert(row)
	// Reviews are confidential to the PC: clearance 2, plus the chair.
	a.enforcer.OnStore(reviewKey(id), user, 2, []string{"chair"})
	c.Text(http.StatusCreated, "review %d stored\n", id)
}

func (a *App) handleGetReview(c *webapp.Context) {
	user, level := a.currentUser(c)
	if user == "" {
		c.Text(http.StatusUnauthorized, "log in first\n")
		return
	}
	id, err := strconv.ParseInt(c.Param("id"), 10, 64)
	if err != nil {
		c.Text(http.StatusBadRequest, "bad review id\n")
		return
	}
	row, ok := a.store.Table("reviews").Get(id)
	if !ok {
		c.Text(http.StatusNotFound, "no such review\n")
		return
	}
	if !a.enforcer.CanAccess(reviewKey(id), user, level) {
		c.Text(http.StatusForbidden, "confidentiality: access denied (level %d insufficient)\n", level)
		return
	}
	var b strings.Builder
	for _, f := range ReviewFields {
		fmt.Fprintf(&b, "%s: %s\n", f, row[f])
	}
	if md, ok := a.enforcer.Store().Get(reviewKey(id)); ok {
		fmt.Fprintf(&b, "stored_by: %s\nstored_date: %s\nlast_modified_by: %s\nlast_modified_date: %s\n",
			md.StoredBy, md.StoredDate.Format("2006-01-02T15:04:05Z07:00"),
			md.LastModifiedBy, md.LastModifiedDate.Format("2006-01-02T15:04:05Z07:00"))
	}
	c.Text(http.StatusOK, "%s", b.String())
}

func (a *App) handleEditReview(c *webapp.Context) {
	user, level := a.currentUser(c)
	if user == "" {
		c.Text(http.StatusUnauthorized, "log in first\n")
		return
	}
	id, err := strconv.ParseInt(c.Param("id"), 10, 64)
	if err != nil {
		c.Text(http.StatusBadRequest, "bad review id\n")
		return
	}
	row, ok := a.store.Table("reviews").Get(id)
	if !ok {
		c.Text(http.StatusNotFound, "no such review\n")
		return
	}
	if !a.enforcer.CanAccess(reviewKey(id), user, level) {
		c.Text(http.StatusForbidden, "confidentiality: access denied\n")
		return
	}
	record := dqruntime.Record{}
	for _, f := range ReviewFields {
		v := c.FormValue(f)
		if v == "" {
			v = row[f] // partial edits keep existing values
		}
		record[f] = v
	}
	report := a.enforcer.CheckInputLabeled(c.R.Context(), record, roleLabel(c))
	if !report.Passed() {
		var b strings.Builder
		b.WriteString("edit rejected by DQ checks:\n")
		for _, f := range report.Failures() {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		c.Text(http.StatusUnprocessableEntity, "%s", b.String())
		return
	}
	for k, v := range record {
		row[k] = v
	}
	a.store.Table("reviews").Update(id, row)
	a.enforcer.OnModify(reviewKey(id), user)
	c.Text(http.StatusOK, "review %d updated\n", id)
}

// handleAudit serves the Traceability requirement's audit trail.
func (a *App) handleAudit(c *webapp.Context) {
	user, level := a.currentUser(c)
	if user == "" {
		c.Text(http.StatusUnauthorized, "log in first\n")
		return
	}
	id, err := strconv.ParseInt(c.Param("id"), 10, 64)
	if err != nil {
		c.Text(http.StatusBadRequest, "bad review id\n")
		return
	}
	if !a.enforcer.CanAccess(reviewKey(id), user, level) {
		c.Text(http.StatusForbidden, "confidentiality: access denied\n")
		return
	}
	var b strings.Builder
	for _, e := range a.enforcer.Store().Audit(reviewKey(id)) {
		fmt.Fprintf(&b, "%s\n", e)
	}
	c.Text(http.StatusOK, "%s", b.String())
}

// handleDQRequirements reports the DQ software requirements in force.
func (a *App) handleDQRequirements(c *webapp.Context) {
	var b strings.Builder
	for _, r := range a.enforcer.Requirements() {
		fmt.Fprintf(&b, "DQSR-%d [%s/%s] %s\n", r.ID, r.Dimension, r.Mechanism, r.Title)
	}
	c.Text(http.StatusOK, "%s", b.String())
}

// handleAssess measures a stored review against the DQ model.
func (a *App) handleAssess(c *webapp.Context) {
	id, err := strconv.ParseInt(c.Param("id"), 10, 64)
	if err != nil {
		c.Text(http.StatusBadRequest, "bad review id\n")
		return
	}
	row, ok := a.store.Table("reviews").Get(id)
	if !ok {
		c.Text(http.StatusNotFound, "no such review\n")
		return
	}
	record := dqruntime.Record{}
	for _, f := range ReviewFields {
		record[f] = row[f]
	}
	var b strings.Builder
	for _, as := range a.enforcer.Assess(record) {
		fmt.Fprintf(&b, "%s\n", as)
	}
	c.Text(http.StatusOK, "%s", b.String())
}

// handleMetrics serves the measurement snapshot: per-measure mean check
// scores over the last hour, across submitter roles.
func (a *App) handleMetrics(c *webapp.Context) {
	var b strings.Builder
	for _, line := range a.collector.Snapshot() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	c.Text(http.StatusOK, "%s", b.String())
}

// handleViolations reports measures whose mean check score over the last
// hour has fallen below the monitoring thresholds.
func (a *App) handleViolations(c *webapp.Context) {
	vs := a.collector.Violations()
	if len(vs) == 0 {
		c.Text(http.StatusOK, "all DQ thresholds satisfied\n")
		return
	}
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%s\n", v)
	}
	c.Text(http.StatusOK, "%s", b.String())
}

// handlePrometheus serves the app's metric registry in the Prometheus
// text exposition format — request latency histograms and status-aware
// counters from the webapp middleware, the per-check DQ counters and
// latency histograms, and dq_threshold_violations, set at scrape time —
// followed by the windowed dq_score families rendered from the
// collector's series.
func (a *App) handlePrometheus(c *webapp.Context) {
	a.collector.Export(a.reg)
	c.W.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.W.WriteHeader(http.StatusOK)
	_ = a.reg.WritePrometheus(c.W)
	_ = dqruntime.WriteScores(c.W, a.collector.Scores())
}

// handleQuality serves the windowed quality series as JSON: for every
// characteristic × context one entry with its retained windows, the
// current window and the Delta/EWMA trends — the machine-readable answer
// to "is Completeness for reviewers degrading?", consumed by
// `dqwebre watch`.
func (a *App) handleQuality(c *webapp.Context) {
	data, err := json.MarshalIndent(a.collector.Scores().Report("dq_score", 0), "", "  ")
	if err != nil {
		c.Text(http.StatusInternalServerError, "quality report: %v\n", err)
		return
	}
	c.W.Header().Set("Content-Type", "application/json; charset=utf-8")
	c.W.WriteHeader(http.StatusOK)
	_, _ = c.W.Write(append(data, '\n'))
}

// roleLabel is the attribution context for quality series: the session's
// role, or "unspecified" for role-less logins, so every observation lands
// in a well-defined series.
func roleLabel(c *webapp.Context) string {
	if role := c.Session.Get("role"); role != "" {
		return role
	}
	return "unspecified"
}

// handleHealthz is a liveness/readiness probe: the pipeline assembled at
// startup (enforcer, collector and its score series, store) is the only
// state that can be unhealthy, so reaching this handler with all of it in
// place is "ok".
func (a *App) handleHealthz(c *webapp.Context) {
	c.W.Header().Set("Content-Type", "application/json; charset=utf-8")
	c.W.WriteHeader(http.StatusOK)
	fmt.Fprintf(c.W,
		`{"status":"ok","requirements":%d,"papers":%d,"reviews":%d}`+"\n",
		len(a.enforcer.Requirements()),
		a.store.Table("papers").Len(), a.store.Table("reviews").Len())
}

// handleSpans dumps the most recent request span trees from the tracer's
// ring buffer, newest first — a zero-dependency stand-in for a tracing
// backend.
func (a *App) handleSpans(c *webapp.Context) {
	spans := a.tracer.Finished()
	var b strings.Builder
	fmt.Fprintf(&b, "%d recent spans (newest first)\n\n", len(spans))
	for _, s := range spans {
		obs.WriteTree(&b, s)
		b.WriteByte('\n')
	}
	c.Text(http.StatusOK, "%s", b.String())
}

// handleNewReviewForm serves the review form generated from the model by
// the codegen layer: required fields and score ranges come straight from
// the captured DQ requirements, and the form's min/max and the enforcer's
// bounds read each range through one payload codec, so they cannot drift.
func (a *App) handleNewReviewForm(c *webapp.Context) {
	if _, err := strconv.ParseInt(c.Param("id"), 10, 64); err != nil {
		c.Text(http.StatusBadRequest, "bad paper id\n")
		return
	}
	c.HTML(http.StatusOK, a.reviewForm)
}

func reviewKey(id int64) string { return fmt.Sprintf("review/%d", id) }
