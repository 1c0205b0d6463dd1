package main

import (
	"context"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/codegen"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metrics"
	"github.com/modeldriven/dqwebre/internal/transform"
	"github.com/modeldriven/dqwebre/internal/webapp"
)

const (
	formClients       = 2    // logged-in PC members, closed loop
	formOpsPerClient  = 6000 // requests per client per round
	formPostShare     = 0.70 // POST /papers/:id/reviews
	formGetShare      = 0.20 // GET /reviews/:id; the rest is GET /reviews/:id/audit
	formRejectedShare = 0.15 // of the POSTs: incomplete or out of range, so 422
)

// Request kinds of the form workload.
const (
	opPost = iota
	opGet
	opAudit
)

var opSpan = []string{"webapp.post_review", "webapp.get_review", "webapp.get_audit"}

// formOp is one planned request. ref is, for reads, the index of the
// client's own earlier accepted review to read.
type formOp struct {
	kind int
	form string // POST body
	ref  int
	want int // planned status code
}

// formWorkload drives easychair.App through Router.ServeHTTP: every round
// starts from a fresh app and replays the same fixed request plan, so the
// store and the collector end each round at the same size.
type formWorkload struct {
	skew  int
	plans [formClients][]formOp

	app     *easychair.App
	cookies [formClients]*http.Cookie
	papers  [formClients]string
	// codes counts the status codes of the last round.
	codes map[int]int
}

func (f *formWorkload) prepare(_ string, seed int64, sum hash.Hash) error {
	rng := rand.New(rand.NewSource(seed))
	for c := range f.plans {
		f.plans[c] = planClient(rng)
		for _, op := range f.plans[c] {
			fmt.Fprintf(sum, "%d %s %d %d\n", op.kind, op.form, op.ref, op.want)
		}
	}
	// A wrong oracle: expect the first skew rejected reviews to be stored.
	for i, n := 0, 0; n < f.skew && i < len(f.plans[0]); i++ {
		if op := &f.plans[0][i]; op.want == http.StatusUnprocessableEntity {
			op.want = http.StatusCreated
			n++
		}
	}
	return nil
}

// planClient draws one client's fixed request mix. The first request is
// an accepted review, so every read has an earlier review to target.
func planClient(rng *rand.Rand) []formOp {
	n := formOpsPerClient
	posts := int(float64(n) * formPostShare)
	gets := int(float64(n) * formGetShare)
	rejected := int(float64(posts) * formRejectedShare)
	kinds := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < posts:
			kinds = append(kinds, opPost)
		case i < posts+gets:
			kinds = append(kinds, opGet)
		default:
			kinds = append(kinds, opAudit)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// Move one POST to the front; it is planned as accepted below.
	for i, k := range kinds {
		if k == opPost {
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}
	reject := make([]bool, posts)
	for _, i := range rng.Perm(posts - 1)[:rejected] {
		reject[i+1] = true
	}
	plan := make([]formOp, 0, n)
	post, accepted := 0, 0
	for _, k := range kinds {
		switch k {
		case opPost:
			op := formOp{kind: opPost, form: reviewForm(rng, reject[post]), want: http.StatusCreated}
			if reject[post] {
				op.want = http.StatusUnprocessableEntity
			} else {
				accepted++
			}
			post++
			plan = append(plan, op)
		default:
			plan = append(plan, formOp{kind: k, ref: rng.Intn(accepted), want: http.StatusOK})
		}
	}
	return plan
}

// reviewForm is a URL-encoded review; a rejected one is incomplete or has
// a score outside its constraint range.
func reviewForm(rng *rand.Rand, rejected bool) string {
	v := url.Values{}
	v.Set("first_name", firstNames[rng.Intn(len(firstNames))])
	v.Set("last_name", lastNames[rng.Intn(len(lastNames))])
	v.Set("email_address", fmt.Sprintf("pc%d@%s", rng.Intn(500), domains[rng.Intn(len(domains))]))
	v.Set("overall_evaluation", strconv.Itoa(rng.Intn(7)-3))
	v.Set("reviewer_confidence", strconv.Itoa(rng.Intn(6)))
	if rejected {
		switch rng.Intn(3) {
		case 0:
			v.Del("first_name")
		case 1:
			v.Set("email_address", "")
		default:
			v.Set("overall_evaluation", strconv.Itoa(4+rng.Intn(5)))
		}
	}
	return v.Encode()
}

// setup is NewApp plus each client's login and paper submission.
func (f *formWorkload) setup() (func(), error) {
	app, err := easychair.NewApp()
	if err != nil {
		return nil, err
	}
	f.app = app
	for c := range f.cookies {
		rec := f.serve(nil, http.MethodPost, "/login",
			fmt.Sprintf("user=pc%d&role=pc&level=2", c))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("login: %d %s", rec.Code, rec.Body.String())
		}
		for _, ck := range rec.Result().Cookies() {
			if ck.Name == "webapp_session" {
				f.cookies[c] = ck
			}
		}
		if f.cookies[c] == nil {
			return nil, fmt.Errorf("login set no session cookie")
		}
		rec = f.serve(f.cookies[c], http.MethodPost, "/papers", fmt.Sprintf("title=Paper+of+pc%d", c))
		var id int
		if _, err := fmt.Sscanf(rec.Body.String(), "paper %d submitted", &id); rec.Code != http.StatusCreated || err != nil {
			return nil, fmt.Errorf("paper submission: %d %s", rec.Code, rec.Body.String())
		}
		f.papers[c] = strconv.Itoa(id)
	}
	return func() {}, nil
}

// serve sends one request through the app's router.
func (f *formWorkload) serve(cookie *http.Cookie, method, path, form string) *httptest.ResponseRecorder {
	var req *http.Request
	if form != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(form))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	if cookie != nil {
		req.AddCookie(cookie)
	}
	rec := httptest.NewRecorder()
	f.app.Router.ServeHTTP(rec, req)
	return rec
}

func (f *formWorkload) run(p *phase, deadline time.Time, tr *tracer) load {
	// Each request is far shorter than a steal; see host.go.
	total := load{requests: true}
	for first := true; first || time.Now().Before(deadline); first = false {
		_, err := f.setup()
		mustf(err, "round setup")
		total.add(f.round(p, tr))
	}
	return total
}

// round replays both clients' plans against the current app.
func (f *formWorkload) round(p *phase, tr *tracer) load {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total load
		lat   []sample
	)
	codes := map[int]int{}
	root := tr.id()
	t0 := time.Now()
	p.begin()
	for c := range f.plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var l load
			var mine []sample
			var created []string
			seen := map[int]int{}
			for _, op := range f.plans[c] {
				var method, path string
				switch op.kind {
				case opPost:
					method, path = http.MethodPost, "/papers/"+f.papers[c]+"/reviews"
				case opGet:
					method, path = http.MethodGet, "/reviews/"+created[op.ref]
				default:
					method, path = http.MethodGet, "/reviews/"+created[op.ref]+"/audit"
				}
				s := time.Now()
				rec := f.serve(f.cookies[c], method, path, op.form)
				e := time.Now()
				tr.child(opSpan[op.kind], root, s, e)
				mine = append(mine, sample{ms: ms(e.Sub(s))})
				l.attempted++
				l.ops++
				seen[rec.Code]++
				if rec.Code != op.want {
					fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d, planned %d\n", method, path, rec.Code, op.want)
					l.failed++
				}
				if op.kind == opPost && op.want == http.StatusCreated {
					// Keep the plan's review indexes aligned even when the
					// oracle is wrong and the review was in fact rejected.
					id := "0"
					if _, rest, ok := strings.Cut(rec.Body.String(), "review "); ok {
						id, _, _ = strings.Cut(rest, " ")
					}
					created = append(created, id)
				}
			}
			mu.Lock()
			total.add(l)
			lat = append(lat, mine...)
			for code, n := range seen {
				codes[code] += n
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall, cpu, stolen := p.end()
	total.segs = []segment{{ops: total.ops, wall: wall, cpu: cpu, lat: lat, stolen: stolen}}
	tr.add(root, "easychair.round", 0, t0, time.Now())
	f.codes = codes
	return total
}

func (f *formWorkload) layers(tr *tracer, out *metricSet) bool {
	ok := true
	var build, form []float64
	for i := 0; i < setupReps; i++ {
		var e *easychair.Elements
		var err error
		build = append(build, ms(timeCall(func() { e, err = easychair.BuildModel() })))
		mustf(err, "BuildModel")
		form = append(form, ms(timeCall(func() {
			_, err = codegen.HTMLForm(e.Model, "Add all data as result of review")
		})))
		mustf(err, "HTMLForm")
	}
	out.set("easychair.build_model_ms", median(build), "ms")
	out.set("easychair.codegen_form_ms", median(form), "ms")

	for _, name := range opSpan {
		d := tr.durations(name, time.Microsecond)
		out.set(name+"_us_p50", quantile(d, 0.50), "us")
		out.set(name+"_us_p99", quantile(d, 0.99), "us")
	}

	// The enforcer path of a review POST, outside HTTP: the app's
	// instrumented enforcer with attribution, then a bare one.
	var records []dqruntime.Record
	for _, op := range f.plans[0] {
		if op.kind == opPost {
			v, err := url.ParseQuery(op.form)
			mustf(err, "parsing a planned form")
			r := dqruntime.Record{}
			for _, k := range easychair.ReviewFields {
				r[k] = v.Get(k)
			}
			records = append(records, r)
		}
	}
	e, err := easychair.BuildModel()
	mustf(err, "BuildModel")
	dqsr, _, err := transform.RunDQR2DQSR(e.Model)
	mustf(err, "RunDQR2DQSR")
	bare, err := dqruntime.BuildFromDQSR(dqsr)
	mustf(err, "BuildFromDQSR")
	ctx := context.Background()
	labeled := func(enf *dqruntime.Enforcer) ([]float64, []*dqruntime.Report) {
		var us []float64
		var reps []*dqruntime.Report
		for _, r := range records {
			var rep *dqruntime.Report
			us = append(us, float64(timeCall(func() { rep = enf.CheckInputLabeled(ctx, r, "pc") }).Nanoseconds())/1e3)
			reps = append(reps, rep)
		}
		return us, reps
	}
	withObserver, _ := labeled(f.app.Enforcer())
	bareUs, reps := labeled(bare)
	out.set("dqruntime.check_input_us", median(withObserver), "us")
	out.set("dqruntime.check_input_bare_us", median(bareUs), "us")

	collector := metrics.NewCollector()
	var chs []iso25012.Characteristic
	for _, r := range bare.Requirements() {
		chs = append(chs, r.Dimension)
	}
	mustf(collector.RegisterCharacteristics(chs...), "registering measures")
	var record, insert []float64
	store := webapp.NewStore()
	for i, rep := range reps {
		record = append(record, float64(timeCall(func() {
			err = collector.RecordReport(rep, "papers/1")
		}).Nanoseconds())/1e3)
		if err != nil {
			ok = false
		}
		row := webapp.Row{"paper": "1"}
		for k, v := range records[i] {
			row[k] = v
		}
		insert = append(insert, float64(timeCall(func() { store.Table("reviews").Insert(row) }).Nanoseconds())/1e3)
	}
	out.set("metrics.record_report_us", median(record), "us")
	out.set("webapp.store_insert_us", median(insert), "us")

	out.set("easychair.status_201", float64(f.codes[http.StatusCreated]), "count")
	out.set("easychair.status_422", float64(f.codes[http.StatusUnprocessableEntity]), "count")
	out.set("easychair.status_200", float64(f.codes[http.StatusOK]), "count")
	return ok
}
