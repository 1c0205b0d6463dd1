// Package validate is the model validation engine: it checks a model
// against (1) the structural conformance rules of its metamodel
// (multiplicities, referential integrity), (2) metamodel well-formedness
// rules expressed in OCL, and (3) the constraints of any applied UML
// profiles (the paper's Table 3 constraints), producing a flat list of
// diagnostics rather than failing on the first problem — an analyst fixes a
// requirements model iteratively.
package validate

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/ocl"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// Severity grades a diagnostic.
type Severity int

// Diagnostic severities.
const (
	// Error marks a violated constraint: the model is not well-formed.
	Error Severity = iota
	// Warning marks a questionable but legal construct.
	Warning
	// Info marks a neutral observation.
	Info
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Rule is an OCL well-formedness rule scoped to instances of one class.
type Rule struct {
	// ID names the rule in diagnostics.
	ID string
	// Class is the (simple or dotted) name of the constrained metaclass.
	Class string
	// Expr is the boolean OCL expression with `self` bound per instance.
	Expr string
	// Doc is the prose reading of the rule.
	Doc string
	// Severity of a violation; Error when zero-valued.
	Severity Severity
}

// Diagnostic is one validation finding.
type Diagnostic struct {
	// Severity grades the finding.
	Severity Severity
	// Rule identifies the violated rule ("conformance" rules come from the
	// metamodel kernel; others carry the Rule.ID or stereotype constraint).
	Rule string
	// Element is the offending model element (nil for model-level findings).
	Element *metamodel.Object
	// Message describes the finding.
	Message string
	// Doc is the prose reading of the violated rule, when available.
	Doc string
}

// String renders the diagnostic for reports.
func (d Diagnostic) String() string {
	loc := "<model>"
	if d.Element != nil {
		loc = d.Element.Label()
	}
	return fmt.Sprintf("%s: %s: [%s] %s", d.Severity, loc, d.Rule, d.Message)
}

// Report is the outcome of a validation run.
type Report struct {
	// Diagnostics holds all findings, errors first, in deterministic order.
	Diagnostics []Diagnostic
	// Checked is the number of (element, rule) pairs evaluated.
	Checked int
}

// OK reports whether the run produced no Error-severity diagnostics.
func (r *Report) OK() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			return false
		}
	}
	return true
}

// Errors returns only the Error-severity diagnostics.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// ByRule returns the diagnostics for one rule id.
func (r *Report) ByRule(id string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Rule == id {
			out = append(out, d)
		}
	}
	return out
}

// Engine validates one model. Construct with New, add rule sources, Run.
type Engine struct {
	model *uml.Model
	rules []Rule
	// skipConformance disables the kernel structural pass (used by callers
	// that already ran it).
	skipConformance bool
	// workers bounds rule-evaluation concurrency; defaults to GOMAXPROCS.
	workers int
}

// New creates an engine for the given profiled model.
func New(m *uml.Model) *Engine {
	return &Engine{model: m}
}

// AddRules appends metamodel well-formedness rules.
func (e *Engine) AddRules(rules ...Rule) *Engine {
	e.rules = append(e.rules, rules...)
	return e
}

// AddProfileConstraints converts the constraints of every stereotype of the
// given profile into rules evaluated on the elements carrying the
// stereotype.
func (e *Engine) AddProfileConstraints(p *uml.Profile) *Engine {
	for _, s := range p.Stereotypes() {
		for _, c := range s.Constraints() {
			e.rules = append(e.rules, Rule{
				ID:       fmt.Sprintf("%s::%s::%s", p.Name(), s.Name(), c.Name),
				Class:    "@stereotype:" + s.Name(),
				Expr:     c.OCL,
				Doc:      c.Doc,
				Severity: Error,
			})
		}
	}
	return e
}

// SkipConformance disables the structural pass.
func (e *Engine) SkipConformance() *Engine {
	e.skipConformance = true
	return e
}

// SetWorkers bounds concurrency; n < 1 resets to the default.
func (e *Engine) SetWorkers(n int) *Engine {
	e.workers = n
	return e
}

// CheckRules statically checks every registered rule's OCL against the
// metamodel: rules must parse and navigate only existing properties of
// their context class. Stereotype-scoped rules are checked against each of
// the stereotype's base metaclasses. It returns one error per broken rule.
func (e *Engine) CheckRules() []error {
	var out []error
	mm := e.model.Metamodel()
	for _, r := range e.rules {
		var contexts []*metamodel.Class
		if sName, ok := stereotypeTarget(r.Class); ok {
			s, found := e.model.ResolveStereotype(sName)
			if !found {
				out = append(out, fmt.Errorf("rule %s: stereotype %q not in any applied profile", r.ID, sName))
				continue
			}
			contexts = s.Bases()
			// The heavyweight counterpart: a metaclass named after the
			// stereotype, when the metamodel defines one. Constraints often
			// navigate its features behind an oclIsKindOf guard.
			if c, found := mm.FindClass(sName); found {
				contexts = append(contexts, c)
			}
		} else {
			c, found := mm.FindClass(r.Class)
			if !found {
				out = append(out, fmt.Errorf("rule %s: unknown class %q", r.ID, r.Class))
				continue
			}
			contexts = []*metamodel.Class{c}
		}
		// A rule is statically sound if it checks against at least one of
		// its context classes (a stereotype may extend several bases with
		// different features).
		var firstErr error
		ok := false
		for _, ctx := range contexts {
			if _, err := ocl.CheckContext(r.Expr, ctx, mm); err == nil {
				ok = true
				break
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if !ok {
			out = append(out, fmt.Errorf("rule %s: %w", r.ID, firstErr))
		}
	}
	return out
}

// Run executes all passes and returns the report. OCL evaluation errors
// (e.g. a rule navigating a property the element lacks) surface as
// diagnostics, not Go errors: a broken rule must not hide other findings.
func (e *Engine) Run() *Report { return e.RunContext(context.Background()) }

// RunContext is Run with observability: when the context carries an active
// span the engine nests "validate.run" with per-pass child spans
// (conformance, rules) and annotates job and worker counts.
func (e *Engine) RunContext(ctx context.Context) *Report {
	ctx, span := obs.StartSpan(ctx, "validate.run")
	span.SetAttr("model", e.model.Name())
	rep := e.run(ctx)
	span.SetAttr("checked", rep.Checked)
	span.SetAttr("findings", len(rep.Diagnostics))
	span.End()
	return rep
}

func (e *Engine) run(ctx context.Context) *Report {
	rep := &Report{}

	if !e.skipConformance {
		_, cspan := obs.StartSpan(ctx, "conformance")
		violations := 0
		for _, v := range metamodel.CheckConformance(e.model.Model) {
			rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
				Severity: Error,
				Rule:     "conformance/" + string(v.Rule),
				Element:  v.Object,
				Message:  v.Message,
			})
			rep.Checked++
			violations++
		}
		cspan.SetAttr("violations", violations)
		cspan.End()
	}

	// One immutable Env is shared by every worker: variable bindings travel
	// through compiled-program frames, not per-job Vars maps.
	env := &ocl.Env{
		Model: e.model.Model,
		Stereotypes: func(obj *metamodel.Object) []string {
			return e.model.StereotypeNames(obj)
		},
		TaggedValue: func(obj *metamodel.Object, name string) metamodel.Value {
			for _, a := range e.model.Applications(obj) {
				if v, ok := a.Tag(name); ok {
					return v
				}
			}
			return nil
		},
	}

	// Build the work list: (element, rule) pairs.
	type job struct {
		obj  *metamodel.Object
		rule Rule
		prog *ocl.Program
	}
	var jobs []job
	for _, r := range e.rules {
		// Compile each rule once through the shared program cache;
		// per-element re-parsing (or even re-walking the AST) dominates
		// large runs.
		prog, parseErr := ocl.CompileString(r.Expr)
		if parseErr != nil {
			rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
				Severity: Error,
				Rule:     r.ID,
				Message:  fmt.Sprintf("rule does not parse: %v", parseErr),
				Doc:      r.Doc,
			})
			continue
		}
		var targets []*metamodel.Object
		if sName, ok := stereotypeTarget(r.Class); ok {
			targets = e.model.StereotypedBy(sName)
		} else {
			c, found := e.model.Metamodel().FindClass(r.Class)
			if !found {
				rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
					Severity: Error,
					Rule:     r.ID,
					Message:  fmt.Sprintf("rule targets unknown class %q", r.Class),
					Doc:      r.Doc,
				})
				continue
			}
			targets = e.model.Model.AllInstances(c)
		}
		for _, o := range targets {
			jobs = append(jobs, job{obj: o, rule: r, prog: prog})
		}
	}
	rep.Checked += len(jobs)

	_, rspan := obs.StartSpan(ctx, "rules")
	rspan.SetAttr("jobs", len(jobs))

	workers := e.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([][]Diagnostic, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = evalJob(jobs[i].obj, jobs[i].rule, jobs[i].prog, env)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	rspan.SetAttr("workers", workers)
	rspan.End()

	for _, ds := range results {
		rep.Diagnostics = append(rep.Diagnostics, ds...)
	}
	sortDiagnostics(rep.Diagnostics)
	return rep
}

// evalJob checks one element against one compiled rule. The Env is shared
// and read-only; self rides in the program's pooled frame.
func evalJob(o *metamodel.Object, r Rule, prog *ocl.Program, env *ocl.Env) []Diagnostic {
	ok, err := prog.EvalBoolSelf(o, env)
	if err != nil {
		return []Diagnostic{{
			Severity: Error,
			Rule:     r.ID,
			Element:  o,
			Message:  fmt.Sprintf("rule evaluation failed: %v", err),
			Doc:      r.Doc,
		}}
	}
	if !ok {
		msg := r.Doc
		if msg == "" {
			msg = fmt.Sprintf("constraint %q violated", r.Expr)
		}
		return []Diagnostic{{
			Severity: r.Severity,
			Rule:     r.ID,
			Element:  o,
			Message:  msg,
			Doc:      r.Doc,
		}}
	}
	return nil
}

func stereotypeTarget(class string) (string, bool) {
	const prefix = "@stereotype:"
	if len(class) > len(prefix) && class[:len(prefix)] == prefix {
		return class[len(prefix):], true
	}
	return "", false
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Severity != ds[j].Severity {
			return ds[i].Severity < ds[j].Severity
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		li, lj := "", ""
		if ds[i].Element != nil {
			li = ds[i].Element.Label()
		}
		if ds[j].Element != nil {
			lj = ds[j].Element.Label()
		}
		return li < lj
	})
}
