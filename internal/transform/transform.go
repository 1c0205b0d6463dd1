// Package transform implements a small QVT-style model-to-model
// transformation engine and the two transformations the paper calls for:
//
//   - DQR2DQSR (paper §5, future work): translate captured Data Quality
//     Requirements into Data Quality Software Requirements — concrete
//     component and check specifications a design model can realize.
//   - EnrichWebRE: proactively extend a plain WebRE requirements model with
//     DQ_WebRE elements (an InformationCase per WebProcess), the paper's
//     "customization of the Information System".
//
// The engine follows QVT operational semantics in miniature: rules match
// source elements by class and guard, instantiate target elements, and a
// trace model links source to target so later rules (and end users) can
// resolve mappings.
package transform

import (
	"context"
	"fmt"

	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/ocl"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// Rule maps instances of one source class to instances of one target class.
type Rule struct {
	// Name identifies the rule in traces and errors.
	Name string
	// From is the source metaclass name (instances of subclasses match too).
	From string
	// GuardOCL, when non-empty, is an OCL boolean filter with `self` bound
	// to the candidate source element.
	GuardOCL string
	// Guard, when non-nil, is a Go-side filter applied after GuardOCL.
	Guard func(src *metamodel.Object) bool
	// To is the target metaclass name; one instance is created per match.
	To string
	// Bind populates the target element. It runs in a second phase, after
	// every rule has created its targets, so Resolve can see all trace
	// links regardless of rule order.
	Bind func(t *Trace, src, dst *metamodel.Object) error
}

// Transformation is an ordered set of rules plus an optional final pass.
type Transformation struct {
	// Name identifies the transformation.
	Name string
	// Rules run in order; a source element may match several rules.
	Rules []Rule
	// Finalize, when non-nil, runs after all binds with the complete trace.
	Finalize func(t *Trace) error
}

// Trace records which target element each (source element, rule) pair
// produced, plus the participating models.
type Trace struct {
	// Source and Target are the models of the run.
	Source, Target *uml.Model
	links          map[*metamodel.Object]map[string]*metamodel.Object
	// Links is the flat list of trace links in creation order.
	Links []Link
}

// Link is one trace entry.
type Link struct {
	// Rule is the producing rule's name.
	Rule string
	// Src and Dst are the mapped elements.
	Src, Dst *metamodel.Object
}

func newTrace(src, dst *uml.Model) *Trace {
	return &Trace{
		Source: src,
		Target: dst,
		links:  make(map[*metamodel.Object]map[string]*metamodel.Object),
	}
}

func (t *Trace) record(rule string, src, dst *metamodel.Object) {
	m, ok := t.links[src]
	if !ok {
		m = make(map[string]*metamodel.Object)
		t.links[src] = m
	}
	m[rule] = dst
	t.Links = append(t.Links, Link{Rule: rule, Src: src, Dst: dst})
}

// Resolve returns the target element a source element was mapped to by any
// rule (the first rule in declaration order wins when several mapped it).
func (t *Trace) Resolve(src *metamodel.Object) (*metamodel.Object, bool) {
	m, ok := t.links[src]
	if !ok || len(m) == 0 {
		return nil, false
	}
	// Prefer deterministic order: scan Links, which preserves rule order.
	for _, l := range t.Links {
		if l.Src == src {
			return l.Dst, true
		}
	}
	return nil, false
}

// ResolveIn returns the target produced for src by one specific rule.
func (t *Trace) ResolveIn(rule string, src *metamodel.Object) (*metamodel.Object, bool) {
	m, ok := t.links[src]
	if !ok {
		return nil, false
	}
	dst, ok := m[rule]
	return dst, ok
}

// TargetsOf returns every target created by the named rule, in creation
// order.
func (t *Trace) TargetsOf(rule string) []*metamodel.Object {
	var out []*metamodel.Object
	for _, l := range t.Links {
		if l.Rule == rule {
			out = append(out, l.Dst)
		}
	}
	return out
}

// Run executes the transformation: phase 1 instantiates targets for every
// rule match; phase 2 binds them; phase 3 finalizes.
func (tr *Transformation) Run(src *uml.Model, targetMeta *metamodel.Package, targetName string) (*uml.Model, *Trace, error) {
	return tr.RunContext(context.Background(), src, targetMeta, targetName)
}

// RunContext is Run with observability: under an active span in ctx the
// engine nests "transform.<name>" with one child span per phase (match,
// bind, finalize) carrying match and trace-link counts.
func (tr *Transformation) RunContext(ctx context.Context, src *uml.Model, targetMeta *metamodel.Package, targetName string) (*uml.Model, *Trace, error) {
	ctx, span := obs.StartSpan(ctx, "transform."+tr.Name)
	span.SetAttr("source", src.Name())
	dst, t, err := tr.run(ctx, src, targetMeta, targetName)
	if err != nil {
		span.Fail(err)
	} else {
		span.SetAttr("links", len(t.Links))
	}
	span.End()
	return dst, t, err
}

func (tr *Transformation) run(ctx context.Context, src *uml.Model, targetMeta *metamodel.Package, targetName string) (*uml.Model, *Trace, error) {
	dst := uml.NewModel(targetName, targetMeta)
	t := newTrace(src, dst)

	type pending struct {
		rule     *Rule
		src, dst *metamodel.Object
	}
	var binds []pending

	_, mspan := obs.StartSpan(ctx, "match")
	for i := range tr.Rules {
		rule := &tr.Rules[i]
		cls, ok := src.Metamodel().FindClass(rule.From)
		if !ok {
			mspan.End()
			return nil, nil, fmt.Errorf("transform %s: rule %s: unknown source class %q",
				tr.Name, rule.Name, rule.From)
		}
		instances := src.Model.AllInstances(cls)
		// Compile the guard once per rule, not once per source instance,
		// and share one Env across the whole extent; self rides in the
		// compiled program's frame. Compilation is deferred until the rule
		// matches at least one instance so an empty extent never trips over
		// a malformed guard.
		var guard *ocl.Program
		var genv *ocl.Env
		if rule.GuardOCL != "" && len(instances) > 0 {
			var err error
			guard, err = ocl.CompileString(rule.GuardOCL)
			if err != nil {
				mspan.End()
				return nil, nil, fmt.Errorf("transform %s: rule %s guard: %w",
					tr.Name, rule.Name, err)
			}
			genv = &ocl.Env{
				Model: src.Model,
				Stereotypes: func(o *metamodel.Object) []string {
					return src.StereotypeNames(o)
				},
			}
		}
		for _, s := range instances {
			if guard != nil {
				ok, err := guard.EvalBoolSelf(s, genv)
				if err != nil {
					mspan.End()
					return nil, nil, fmt.Errorf("transform %s: rule %s guard: %w",
						tr.Name, rule.Name, err)
				}
				if !ok {
					continue
				}
			}
			if rule.Guard != nil && !rule.Guard(s) {
				continue
			}
			d, err := dst.Create(rule.To)
			if err != nil {
				mspan.End()
				return nil, nil, fmt.Errorf("transform %s: rule %s: %w", tr.Name, rule.Name, err)
			}
			t.record(rule.Name, s, d)
			binds = append(binds, pending{rule: rule, src: s, dst: d})
		}
	}
	mspan.SetAttr("rules", len(tr.Rules))
	mspan.SetAttr("matches", len(binds))
	mspan.End()

	_, bspan := obs.StartSpan(ctx, "bind")
	for _, p := range binds {
		if p.rule.Bind == nil {
			continue
		}
		if err := p.rule.Bind(t, p.src, p.dst); err != nil {
			bspan.End()
			return nil, nil, fmt.Errorf("transform %s: rule %s bind: %w", tr.Name, p.rule.Name, err)
		}
	}
	bspan.End()
	if tr.Finalize != nil {
		_, fspan := obs.StartSpan(ctx, "finalize")
		err := tr.Finalize(t)
		fspan.Fail(err)
		fspan.End()
		if err != nil {
			return nil, nil, fmt.Errorf("transform %s: finalize: %w", tr.Name, err)
		}
	}
	return dst, t, nil
}
