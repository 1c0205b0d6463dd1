package transform

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// DQSR2Design builds the transformation from a DQSR model to a UML design
// model — the paper's stated goal of translating "the DQ requirements into
// the corresponding design elements ... to design models and produce code
// in a semiautomatic manner":
//
//	ComponentSpec(metadata-store) → Class with one attribute per metadata
//	                                name plus record_key, and store/modify
//	                                operations
//	ComponentSpec(validator)      → Class with one Boolean operation per
//	                                check function
//	ComponentSpec(constraint)     → Class with one attribute per payload:
//	                                bounds typed Integer, ranges Range,
//	                                OCL predicates OCLExpression
//	SoftwareRequirement           → Requirement traced to the classes
//	                                realizing it
//
// The target is the plain UML metamodel, so the result renders as an
// ordinary class diagram and serializes as ordinary XMI.
func DQSR2Design() *Transformation {
	return &Transformation{
		Name: "DQSR2Design",
		Rules: []Rule{
			{
				Name: "component2class",
				From: MetaComponentSpec,
				To:   uml.MetaClass,
				Bind: bindComponentClass,
			},
			{
				Name: "requirement2requirement",
				From: MetaSoftwareRequirement,
				To:   uml.MetaRequirement,
				Bind: func(t *Trace, src, dst *metamodel.Object) error {
					if err := dst.SetString("name", src.GetString("title")); err != nil {
						return err
					}
					if err := dst.SetInt("id", src.GetInt("id")); err != nil {
						return err
					}
					text := src.GetString("description")
					if text == "" {
						text = src.GetString("title")
					}
					if err := dst.SetString("text", text); err != nil {
						return err
					}
					for _, comp := range src.GetRefs("realizedBy") {
						cls, ok := t.ResolveIn("component2class", comp)
						if !ok {
							return fmt.Errorf("component %q not mapped", comp.GetString("name"))
						}
						if err := dst.AppendRef("tracedTo", cls); err != nil {
							return err
						}
					}
					return nil
				},
			},
		},
	}
}

func bindComponentClass(t *Trace, src, dst *metamodel.Object) error {
	name := classNameFor(src.GetString("name"))
	if err := dst.SetString("name", name); err != nil {
		return err
	}
	addAttr := func(attrName, typ string) error {
		a, err := t.Target.Create(uml.MetaAttribute)
		if err != nil {
			return err
		}
		if err := a.SetString("name", attrName); err != nil {
			return err
		}
		if err := a.SetString("type", typ); err != nil {
			return err
		}
		return dst.AppendRef("attributes", a)
	}
	addOp := func(opName, sig string) error {
		o, err := t.Target.Create(uml.MetaOperation)
		if err != nil {
			return err
		}
		if err := o.SetString("name", opName); err != nil {
			return err
		}
		if err := o.SetString("signature", sig); err != nil {
			return err
		}
		return dst.AppendRef("operations", o)
	}

	switch src.GetString("kind") {
	case KindMetadataStore:
		if err := addAttr("record_key", "String"); err != nil {
			return err
		}
		for _, v := range src.GetList("attributes") {
			mdName := string(v.(metamodel.String))
			typ := "String"
			if strings.Contains(mdName, "date") {
				typ = "Timestamp"
			}
			if strings.Contains(mdName, "level") {
				typ = "Integer"
			}
			if err := addAttr(mdName, typ); err != nil {
				return err
			}
		}
		if err := addOp("recordStore", "(key: String, user: String): void"); err != nil {
			return err
		}
		if err := addOp("recordModify", "(key: String, user: String): void"); err != nil {
			return err
		}
	case KindValidator:
		for _, v := range src.GetList("operations") {
			if err := addOp(string(v.(metamodel.String)), "(record): Boolean"); err != nil {
				return err
			}
		}
	case KindConstraint:
		// Bounds and predicates are named by their key; ranges and
		// unrecognised payloads as written.
		for _, v := range src.GetList("attributes") {
			raw := string(v.(metamodel.String))
			name, typ := raw, "String"
			switch p := dqwebre.ParsePayload(raw); p.Kind {
			case dqwebre.LowerBound, dqwebre.UpperBound:
				name, typ = string(p.Kind), "Integer = "+strconv.FormatInt(p.Bound, 10)
			case dqwebre.FieldRange:
				typ = "Range"
			case dqwebre.OCLPredicate:
				name, typ = string(p.Kind), "OCLExpression = "+p.Expr
			}
			if err := addAttr(name, typ); err != nil {
				return err
			}
		}
		if err := addOp("holds", "(value: Integer): Boolean"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown component kind %q", src.GetString("kind"))
	}
	return nil
}

// classNameFor converts a component name to UpperCamelCase.
func classNameFor(name string) string {
	parts := strings.FieldsFunc(name, func(r rune) bool {
		return r == ' ' || r == '-' || r == '_'
	})
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(strings.ToUpper(p[:1]) + p[1:])
	}
	if b.Len() == 0 {
		return "Component"
	}
	return b.String()
}

// RunDQSR2Design transforms a DQSR model into a UML design model.
func RunDQSR2Design(dqsr *uml.Model) (*uml.Model, *Trace, error) {
	return RunDQSR2DesignContext(context.Background(), dqsr)
}

// RunDQSR2DesignContext is RunDQSR2Design under the context's active span.
func RunDQSR2DesignContext(ctx context.Context, dqsr *uml.Model) (*uml.Model, *Trace, error) {
	return DQSR2Design().RunContext(ctx, dqsr, uml.Metamodel(), dqsr.Name()+"-design")
}
