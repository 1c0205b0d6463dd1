package transform

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// DQSR target metamodel class names.
const (
	MetaSoftwareRequirement = "SoftwareRequirement"
	MetaComponentSpec       = "ComponentSpec"
	MetaCheckSpec           = "CheckSpec"
)

// Component kinds produced by the DQR2DQSR transformation.
const (
	KindMetadataStore = "metadata-store"
	KindValidator     = "validator"
	KindConstraint    = "constraint"
)

var (
	dqsrOnce sync.Once
	dqsrPkg  *metamodel.Package
)

// DQSRMetamodel returns the target metamodel of the DQR→DQSR transformation:
// design-level software requirement and component specifications.
func DQSRMetamodel() *metamodel.Package {
	dqsrOnce.Do(func() {
		p := metamodel.NewPackage("DQSR")
		str := p.AddDataType("String", metamodel.PrimString)
		intT := p.AddDataType("Integer", metamodel.PrimInteger)

		comp := p.AddClass(MetaComponentSpec).
			SetDoc("A concrete software component realizing DQ behaviour: a metadata store, a validator or a constraint holder.")
		comp.AddProperty("name", str, 1, 1)
		comp.AddProperty("kind", str, 1, 1).
			SetDoc("One of metadata-store, validator, constraint.")
		comp.AddProperty("attributes", str, 0, metamodel.Unbounded).
			SetDoc("Attributes the component must persist (metadata names, bounds).")
		comp.AddProperty("operations", str, 0, metamodel.Unbounded).
			SetDoc("Operations the component must expose (check functions).")

		check := p.AddClass(MetaCheckSpec).
			SetDoc("One executable DQ check: the function a validator must implement for one characteristic.")
		check.AddProperty("name", str, 1, 1)
		check.AddProperty("characteristic", str, 1, 1)
		check.AddAttr("function", str).
			SetDoc("Suggested function name, e.g. check_completeness.")

		req := p.AddClass(MetaSoftwareRequirement).
			SetDoc("A Data Quality Software Requirement: the functional requirement a DQR translates into.")
		req.AddAttr("id", intT)
		req.AddProperty("title", str, 1, 1)
		req.AddProperty("dimension", str, 1, 1).
			SetDoc("The ISO/IEC 25012 characteristic driving this requirement.")
		req.AddAttr("description", str)
		req.AddProperty("fields", str, 0, metamodel.Unbounded).
			SetDoc("The data fields in scope: the attributes of the Contents managed by the InformationCase that includes the source DQ_Requirement.")
		req.AddRefs("realizedBy", comp).
			SetDoc("Components that together satisfy the requirement.")
		req.AddRefs("checks", check).
			SetDoc("Executable checks derived from the requirement.")

		metamodel.MustRegister(p)
		dqsrPkg = p
	})
	return dqsrPkg
}

// checkFunctionFor names the validator function for a characteristic,
// matching the paper's examples (check_completeness, check_precision).
func checkFunctionFor(c iso25012.Characteristic) string {
	return "check_" + strings.ToLower(string(c))
}

// metadataDriven lists the characteristics realized by capturing metadata
// (the paper's Traceability and Confidentiality requirements) rather than
// by validation functions.
var metadataDriven = map[iso25012.Characteristic]bool{
	iso25012.Traceability:    true,
	iso25012.Confidentiality: true,
	iso25012.Availability:    true,
	iso25012.Recoverability:  true,
}

// DQR2DQSR builds the transformation from a DQ_WebRE requirements model to
// a DQSR model:
//
//	DQ_Requirement → SoftwareRequirement (id/text from its specification)
//	DQ_Metadata    → ComponentSpec(kind=metadata-store, attributes=dq_metadata)
//	DQ_Validator   → ComponentSpec(kind=validator, operations=class ops)
//	DQConstraint   → ComponentSpec(kind=constraint, attributes=bounds+payload)
//
// and wires realizedBy: metadata-driven dimensions (Traceability,
// Confidentiality, ...) to the metadata stores; validation-driven dimensions
// to the validators, with constraints riding along; every requirement gains
// a CheckSpec naming its check function.
func DQR2DQSR() *Transformation {
	return &Transformation{
		Name: "DQR2DQSR",
		Rules: []Rule{
			{
				Name: "requirement2software",
				From: dqwebre.MetaDQRequirement,
				To:   MetaSoftwareRequirement,
				Bind: func(t *Trace, src, dst *metamodel.Object) error {
					if err := dst.SetString("title", src.GetString("name")); err != nil {
						return err
					}
					dim := ""
					if v, ok := src.Get("dimension"); ok {
						if lit, ok := v.(metamodel.EnumLit); ok {
							dim = lit.Literal
						}
					}
					if dim == "" {
						return fmt.Errorf("DQ_Requirement %q lacks a dimension", src.GetString("name"))
					}
					if err := dst.SetString("dimension", dim); err != nil {
						return err
					}
					if spec := src.GetRef("specification"); spec != nil {
						if err := dst.SetInt("id", spec.GetInt("id")); err != nil {
							return err
						}
						if err := dst.SetString("description", spec.GetString("text")); err != nil {
							return err
						}
					}
					// The fields in scope: attributes of the Contents
					// managed by the InformationCase(s) including src.
					for _, f := range fieldsInScope(t.Source, src) {
						if err := dst.Append("fields", metamodel.String(f)); err != nil {
							return err
						}
					}
					// The executable check.
					chk, err := t.Target.Create(MetaCheckSpec)
					if err != nil {
						return err
					}
					if err := chk.SetString("name", dim+" check"); err != nil {
						return err
					}
					if err := chk.SetString("characteristic", dim); err != nil {
						return err
					}
					if err := chk.SetString("function", checkFunctionFor(iso25012.Characteristic(dim))); err != nil {
						return err
					}
					return dst.AppendRef("checks", chk)
				},
			},
			{
				Name: "metadata2component",
				From: dqwebre.MetaDQMetadata,
				To:   MetaComponentSpec,
				Bind: func(t *Trace, src, dst *metamodel.Object) error {
					if err := dst.SetString("name", src.GetString("name")); err != nil {
						return err
					}
					if err := dst.SetString("kind", KindMetadataStore); err != nil {
						return err
					}
					for _, v := range src.GetList("dq_metadata") {
						if err := dst.Append("attributes", v); err != nil {
							return err
						}
					}
					return nil
				},
			},
			{
				Name: "validator2component",
				From: dqwebre.MetaDQValidator,
				To:   MetaComponentSpec,
				Bind: func(t *Trace, src, dst *metamodel.Object) error {
					if err := dst.SetString("name", src.GetString("name")); err != nil {
						return err
					}
					if err := dst.SetString("kind", KindValidator); err != nil {
						return err
					}
					for _, op := range src.GetRefs("operations") {
						if err := dst.Append("operations", metamodel.String(op.GetString("name"))); err != nil {
							return err
						}
					}
					return nil
				},
			},
			{
				Name: "constraint2component",
				From: dqwebre.MetaDQConstraint,
				To:   MetaComponentSpec,
				Bind: func(t *Trace, src, dst *metamodel.Object) error {
					if err := dst.SetString("name", src.GetString("name")); err != nil {
						return err
					}
					if err := dst.SetString("kind", KindConstraint); err != nil {
						return err
					}
					// The bounds, named after the attributes they carry, then
					// the constraint data verbatim.
					var payloads []metamodel.Value
					for _, k := range [...]dqwebre.PayloadKind{dqwebre.LowerBound, dqwebre.UpperBound} {
						if src.IsSet(string(k)) {
							payloads = append(payloads, metamodel.String(dqwebre.FormatBound(k, src.GetInt(string(k)))))
						}
					}
					for _, v := range append(payloads, src.GetList("constraintData")...) {
						if err := dst.Append("attributes", v); err != nil {
							return err
						}
					}
					return nil
				},
			},
		},
		Finalize: wireRealizations,
	}
}

// fieldsInScope returns the attribute names of the Contents managed by the
// InformationCases that include the given DQ_Requirement, deduplicated in
// first-seen order.
func fieldsInScope(src *uml.Model, req *metamodel.Object) []string {
	icClass, ok := src.Metamodel().FindClass(dqwebre.MetaInformationCase)
	if !ok {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, ic := range src.Model.AllInstances(icClass) {
		includes := false
		for _, inc := range ic.GetRefs("include") {
			if inc.GetRef("addition") == req {
				includes = true
				break
			}
		}
		if !includes {
			continue
		}
		for _, content := range ic.GetRefs("manages") {
			for _, attr := range content.GetRefs("attributes") {
				name := attr.GetString("name")
				if name != "" && !seen[name] {
					seen[name] = true
					out = append(out, name)
				}
			}
		}
	}
	return out
}

// wireRealizations links every SoftwareRequirement to the components that
// realize it, per the dimension policy, and lets constraints ride with
// their validators.
func wireRealizations(t *Trace) error {
	stores := t.TargetsOf("metadata2component")
	validators := t.TargetsOf("validator2component")

	// Constraints attach to the components of the validators they reference
	// in the source model.
	constraintByValidator := map[*metamodel.Object][]*metamodel.Object{}
	for _, l := range t.Links {
		if l.Rule != "constraint2component" {
			continue
		}
		for _, v := range l.Src.GetRefs("validator") {
			if comp, ok := t.ResolveIn("validator2component", v); ok {
				constraintByValidator[comp] = append(constraintByValidator[comp], l.Dst)
			}
		}
	}

	for _, req := range t.TargetsOf("requirement2software") {
		dim := iso25012.Characteristic(req.GetString("dimension"))
		if metadataDriven[dim] {
			for _, s := range stores {
				if err := req.AppendRef("realizedBy", s); err != nil {
					return err
				}
			}
			continue
		}
		for _, v := range validators {
			if err := req.AppendRef("realizedBy", v); err != nil {
				return err
			}
			for _, c := range constraintByValidator[v] {
				if err := req.AppendRef("realizedBy", c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RunDQR2DQSR is a convenience wrapper: transform a requirements model and
// return the DQSR model with its trace.
func RunDQR2DQSR(rm *dqwebre.RequirementsModel) (*uml.Model, *Trace, error) {
	return RunDQR2DQSRContext(context.Background(), rm)
}

// RunDQR2DQSRContext is RunDQR2DQSR under the context's active span, so
// the transformation's phases appear in the caller's trace.
func RunDQR2DQSRContext(ctx context.Context, rm *dqwebre.RequirementsModel) (*uml.Model, *Trace, error) {
	return DQR2DQSR().RunContext(ctx, rm.Model, DQSRMetamodel(), rm.Name()+"-DQSR")
}
