package dqruntime

import (
	"context"
	"fmt"
	"strings"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// Enforcer is the assembled runtime for one web functionality: the input
// validator, the metadata store, and flags for which metadata-driven
// requirements are active. BuildFromDQSR constructs one directly from a
// DQSR model, closing the paper's loop: DQR (model) → DQSR (model) →
// executable enforcement.
type Enforcer struct {
	validator *Validator
	store     *MetadataStore
	// traceability and confidentiality report whether those metadata-driven
	// requirements were present in the DQSR model.
	traceability    bool
	confidentiality bool
	// dqModel carries the required minimum levels (1.0 per captured
	// characteristic: the paper's requirements are pass/fail).
	dqModel *iso25012.DQModel
	// requirements summarizes the source requirements for reporting.
	requirements []RequirementSummary
	// observer, when non-nil, receives check-level attribution (outcome,
	// score, latency, context label) from CheckInputLabeled; see attrib.go.
	observer CheckObserver
}

// RequirementSummary is one DQSR entry as seen by the enforcer.
type RequirementSummary struct {
	// ID and Title identify the requirement.
	ID    int64
	Title string
	// Dimension is the ISO/IEC 25012 characteristic.
	Dimension iso25012.Characteristic
	// Description is the detailed specification text.
	Description string
	// Mechanism is "validator" or "metadata".
	Mechanism string
}

// BuildFromDQSR assembles an Enforcer from a DQSR model (the output of the
// DQR2DQSR transformation). Validation-driven requirements become checks:
//
//	Completeness → CompletenessCheck over the requirement's fields
//	Precision    → PrecisionCheck per ranged field, with its range, and per
//	               other numeric-looking field, with the constraint bounds
//	Accuracy     → AccuracyCheck (email pattern) for *email* fields
//
// Metadata-driven requirements (Traceability, Confidentiality) switch on
// the corresponding metadata capture and authorization.
func BuildFromDQSR(m *uml.Model) (*Enforcer, error) {
	reqClass, ok := m.Metamodel().FindClass("SoftwareRequirement")
	if !ok {
		return nil, fmt.Errorf("dqruntime: model %q is not a DQSR model", m.Name())
	}
	e := &Enforcer{
		validator: NewValidator(m.Name() + " validator"),
		store:     NewMetadataStore(),
		dqModel:   iso25012.NewDQModel(m.Name() + " DQ model"),
	}
	for _, req := range m.Model.AllInstances(reqClass) {
		dim := iso25012.Characteristic(req.GetString("dimension"))
		if !iso25012.IsValid(string(dim)) {
			return nil, fmt.Errorf("dqruntime: requirement %q has unknown dimension %q",
				req.GetString("title"), dim)
		}
		summary := RequirementSummary{
			ID:          req.GetInt("id"),
			Title:       req.GetString("title"),
			Dimension:   dim,
			Description: req.GetString("description"),
		}
		fields := stringList(req.GetList("fields"))
		data := dqwebre.ReadConstraintData(constraintPayloads(req))
		switch dim {
		case iso25012.Completeness:
			summary.Mechanism = "validator"
			e.validator.Add(CompletenessCheck{Required: fields})
		case iso25012.Precision:
			summary.Mechanism = "validator"
			lower, upper := data.Lower, data.Upper
			if !data.HasBounds {
				lower, upper = 0, 10
			}
			for _, f := range fields {
				lo, hi := lower, upper
				if r, ok := data.Ranges[f]; ok {
					lo, hi = r[0], r[1]
				} else if !looksNumeric(f) {
					continue
				}
				e.validator.Add(PrecisionCheck{Field: f, Lower: lo, Upper: hi, Optional: true})
			}
		case iso25012.Accuracy:
			summary.Mechanism = "validator"
			for _, f := range fields {
				if strings.Contains(f, "email") {
					e.validator.Add(AccuracyCheck{Field: f, Pattern: EmailPattern, Optional: true})
				}
			}
		case iso25012.Traceability:
			summary.Mechanism = "metadata"
			e.traceability = true
		case iso25012.Confidentiality:
			summary.Mechanism = "metadata"
			e.confidentiality = true
		default:
			// Other characteristics are recorded in the DQ model but have no
			// generic runtime realization; applications add custom checks.
			summary.Mechanism = "custom"
		}
		// Constraint components may carry an explicit OCL predicate
		// ("ocl=<expr>"); each becomes a compiled OCLCheck regardless of
		// dimension, upgrading custom requirements to validator-enforced.
		for _, expr := range data.OCL {
			chk, err := NewOCLCheck(dim, expr)
			if err != nil {
				return nil, fmt.Errorf("dqruntime: requirement %q: %w", summary.Title, err)
			}
			e.validator.Add(chk)
			if summary.Mechanism == "custom" {
				summary.Mechanism = "validator"
			}
		}
		if err := e.dqModel.Require(dim, 1.0); err != nil {
			return nil, err
		}
		e.requirements = append(e.requirements, summary)
	}
	return e, nil
}

// constraintPayloads concatenates the attributes (the payloads) of the
// requirement's realizing constraint components, in model order.
func constraintPayloads(req *metamodel.Object) []metamodel.Value {
	var out []metamodel.Value
	for _, comp := range req.GetRefs("realizedBy") {
		if comp.GetString("kind") == "constraint" {
			out = append(out, comp.GetList("attributes")...)
		}
	}
	return out
}

// looksNumeric reports whether a field name suggests a numeric score; the
// paper's case study scores are overall_evaluation and reviewer_confidence.
func looksNumeric(field string) bool {
	for _, hint := range []string{"score", "evaluation", "confidence", "rating", "count", "level"} {
		if strings.Contains(field, hint) {
			return true
		}
	}
	return false
}

func stringList(items []metamodel.Value) []string {
	out := make([]string, 0, len(items))
	for _, v := range items {
		if s, ok := v.(metamodel.String); ok {
			out = append(out, string(s))
		}
	}
	return out
}

// Validator exposes the assembled input validator.
func (e *Enforcer) Validator() *Validator { return e.validator }

// Store exposes the metadata store.
func (e *Enforcer) Store() *MetadataStore { return e.store }

// TraceabilityEnabled reports whether traceability metadata is captured.
func (e *Enforcer) TraceabilityEnabled() bool { return e.traceability }

// ConfidentialityEnabled reports whether confidentiality is enforced.
func (e *Enforcer) ConfidentialityEnabled() bool { return e.confidentiality }

// Requirements returns the requirement summaries in model order.
func (e *Enforcer) Requirements() []RequirementSummary {
	return append([]RequirementSummary(nil), e.requirements...)
}

// DQModel returns the required-levels model for assessments.
func (e *Enforcer) DQModel() *iso25012.DQModel { return e.dqModel }

// AttachObserver routes check-level attribution (outcome, score, latency,
// context label) from every CheckInputLabeled call into o. A nil observer
// detaches; without one the per-check clock reads are skipped entirely.
func (e *Enforcer) AttachObserver(o CheckObserver) *Enforcer {
	e.observer = o
	return e
}

// CheckInput validates user input against all assembled checks.
func (e *Enforcer) CheckInput(r Record) *Report {
	return e.CheckInputContext(context.Background(), r)
}

// CheckInputContext validates user input with observability: when the
// context carries an active span a child span "enforcer.check_input"
// records check count and failures, and an attached CheckObserver receives
// every check result.
func (e *Enforcer) CheckInputContext(ctx context.Context, r Record) *Report {
	return e.CheckInputLabeled(ctx, r, "")
}

// CheckInputLabeled is CheckInputContext with an attribution context
// label (a user role, workflow stage, tenant — whatever dimension the
// deployment wants its quality series broken down by). When an observer
// is attached every check execution is reported with its outcome, score,
// latency and the label; without one the path is identical to
// CheckInputContext.
func (e *Enforcer) CheckInputLabeled(ctx context.Context, r Record, contextLabel string) *Report {
	_, span := obs.StartSpan(ctx, "enforcer.check_input")
	rep := &Report{}
	if e.observer != nil {
		e.validator.ValidateObserved(r, rep, func(res *CheckResult, seconds float64) {
			e.observer.ObserveCheck(CheckObservation{
				Check:          res.Check,
				Characteristic: res.Characteristic,
				Context:        contextLabel,
				Score:          res.Score,
				Passed:         res.Passed,
				Seconds:        seconds,
			})
		})
	} else {
		e.validator.ValidateInto(r, rep)
	}
	if span != nil {
		span.SetAttr("checks", len(rep.Results))
		if failed := len(rep.Failures()); failed > 0 {
			span.SetAttr("failed", failed)
		}
		span.End()
	}
	return rep
}

// OnStore captures metadata for an initial write, honoring the enabled
// requirements: no-ops when neither traceability nor confidentiality was
// required.
func (e *Enforcer) OnStore(key, user string, level int, availableTo []string) {
	if !e.traceability && !e.confidentiality {
		return
	}
	if !e.confidentiality {
		level, availableTo = 0, nil
	}
	e.store.RecordStore(key, user, level, availableTo)
}

// OnModify captures metadata for a change.
func (e *Enforcer) OnModify(key, user string) {
	if e.traceability || e.confidentiality {
		e.store.RecordModify(key, user)
	}
}

// CanAccess enforces confidentiality; it allows everything when
// confidentiality was not required.
func (e *Enforcer) CanAccess(key, user string, userLevel int) bool {
	if !e.confidentiality {
		return true
	}
	return e.store.Authorize(key, user, userLevel)
}

// Assess measures a record against the DQ model: validator scores for
// validation-driven characteristics, and full marks for metadata-driven
// ones when their machinery is enabled (the system guarantees them).
func (e *Enforcer) Assess(r Record) []iso25012.Assessment {
	scores := e.CheckInput(r).Scores()
	if e.traceability {
		scores[iso25012.Traceability] = 1
	}
	if e.confidentiality {
		scores[iso25012.Confidentiality] = 1
	}
	return e.dqModel.Assess(scores)
}
