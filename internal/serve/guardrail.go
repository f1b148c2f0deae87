package serve

import (
	"fmt"

	"greennfv/internal/perfmodel"
	"greennfv/internal/sla"
)

// Guardrail vets proposed knob configurations before they reach a
// node: every knob must lie inside the bounds, and the performance
// model's prediction at the node's current traffic must satisfy the
// SLA. The prediction is made on the GreenNFV platform (the zero
// perfmodel.EvalOptions), the one every node's environment runs. It
// is the reason a noisy or stale policy cannot push a node
// into violation — rejected proposals fall down the degradation
// ladder instead of onto hardware.
//
// Not goroutine-safe: the prediction scratch is reused per check.
// The controller guards calls with its own lock; each agent owns one.
type Guardrail struct {
	Model  perfmodel.Config
	Chain  perfmodel.ChainSpec
	Bounds perfmodel.KnobBounds
	SLA    sla.SLA

	res perfmodel.Result // prediction scratch
}

// Check vets knobs against the bounds and the SLA at traffic tr. On
// success it returns the model's predicted measurement; on failure
// the error says which rule rejected the proposal. The returned
// Result's PerNF aliases guardrail scratch, valid until the next
// Check.
func (g *Guardrail) Check(knobs []perfmodel.NFKnobs, tr perfmodel.Traffic) (perfmodel.Result, error) {
	if len(knobs) != len(g.Chain.NFs) {
		return perfmodel.Result{}, fmt.Errorf("serve: %d knob sets for %d NFs", len(knobs), len(g.Chain.NFs))
	}
	for i, k := range knobs {
		if k != g.Bounds.Clamp(k) {
			return perfmodel.Result{}, fmt.Errorf("serve: NF %d knobs %+v outside bounds", i, k)
		}
	}
	if err := g.Model.EvaluateInto(&g.res, g.Chain, knobs, tr, perfmodel.EvalOptions{}); err != nil {
		return perfmodel.Result{}, fmt.Errorf("serve: guardrail predict: %w", err)
	}
	if !g.SLA.Satisfied(g.res.ThroughputGbps, g.res.EnergyJoules) {
		return perfmodel.Result{}, fmt.Errorf(
			"serve: predicted %s violation (%.2f Gbps, %.0f J)",
			g.SLA.Kind, g.res.ThroughputGbps, g.res.EnergyJoules)
	}
	return g.res, nil
}
