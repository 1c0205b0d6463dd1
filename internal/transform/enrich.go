package transform

import (
	"context"
	"fmt"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// EnrichWithDQ performs the paper's proactive customization step on an
// existing requirements model: every WebProcess that does not yet include
// an InformationCase gains one ("Manage data of <process>"), and each new
// InformationCase gains one DQ_Requirement per requested characteristic,
// with an auto-numbered specification. It returns the number of
// InformationCases added.
//
// This is an in-place (update) transformation, complementing the
// model-to-model DQR2DQSR; together they realize the pipeline the paper
// sketches: plain web requirements → DQ-aware requirements → DQ software
// requirements.
func EnrichWithDQ(rm *dqwebre.RequirementsModel, dims []iso25012.Characteristic) (int, error) {
	return EnrichWithDQContext(context.Background(), rm, dims)
}

// EnrichWithDQContext is EnrichWithDQ under the context's active span: a
// "transform.EnrichWithDQ" span records the number of InformationCases
// added.
func EnrichWithDQContext(ctx context.Context, rm *dqwebre.RequirementsModel, dims []iso25012.Characteristic) (int, error) {
	_, span := obs.StartSpan(ctx, "transform.EnrichWithDQ")
	added, err := enrichWithDQ(rm, dims)
	span.SetAttr("added", added)
	span.Fail(err)
	span.End()
	return added, err
}

func enrichWithDQ(rm *dqwebre.RequirementsModel, dims []iso25012.Characteristic) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("transform: EnrichWithDQ needs at least one characteristic")
	}
	for _, d := range dims {
		if !iso25012.IsValid(string(d)) {
			return 0, fmt.Errorf("transform: unknown characteristic %q", d)
		}
	}
	icClass := dqwebre.MustClass(dqwebre.MetaInformationCase)
	processes, err := rm.Model.AllInstancesOf("WebProcess")
	if err != nil {
		return 0, err
	}
	specs, err := rm.Model.AllInstancesOf(dqwebre.MetaDQReqSpecification)
	if err != nil {
		return 0, err
	}
	nextID := int64(1)
	for _, s := range specs {
		if id := s.GetInt("id"); id >= nextID {
			nextID = id + 1
		}
	}

	added := 0
	for _, proc := range processes {
		if hasIncludedInformationCase(proc, icClass) {
			continue
		}
		ic := rm.InformationCase("Manage data of "+proc.GetString("name"), proc)
		if ic == nil {
			return added, rm.Err()
		}
		for _, dim := range dims {
			req := rm.DQRequirement(
				fmt.Sprintf("ensure %s of data in %s", dim, proc.GetString("name")),
				dim, ic)
			if req == nil {
				return added, rm.Err()
			}
			def := iso25012.MustLookup(string(dim))
			rm.Specify(req, nextID, def.Text)
			nextID++
		}
		added++
	}
	return added, rm.Err()
}

func hasIncludedInformationCase(proc *metamodel.Object, icClass *metamodel.Class) bool {
	for _, inc := range proc.GetRefs("include") {
		if add := inc.GetRef("addition"); add != nil && add.IsA(icClass) {
			return true
		}
	}
	return false
}
