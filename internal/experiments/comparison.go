package experiments

import (
	"fmt"

	"greennfv/internal/control"
)

// ComparisonRow is one bar of paper Figure 9.
type ComparisonRow struct {
	Name           string
	ThroughputGbps float64
	EnergyJ        float64
	Efficiency     float64 // Gbps per kJ
	SpeedupVsBase  float64
	EnergyVsBase   float64
}

// Fig9 reproduces the model comparison (paper Figure 9): achieved
// throughput and energy consumption for the Baseline, Heuristics,
// EE-Pstate, Q-Learning and the three GreenNFV SLA models, all under
// the same five-flow workload. It returns both the table and the raw
// rows for assertions.
func (s *Suite) Fig9() (*Table, []ComparisonRow, error) {
	// One arm per bar, each deployed from the same seed; a bar is the
	// settled mean of the last quarter of its deployment.
	o, seed := s.o, s.o.Seed+1000
	arms := []arm{
		{kind: baseline, sla: s.ee, deploySeed: seed, steps: 12},
		{kind: heuristic, sla: s.ee, deploySeed: seed, steps: 400},
		{kind: eePstate, sla: s.ee, deploySeed: seed, steps: 50},
		{kind: qLearning, sla: s.ee, deploySeed: seed, steps: o.ControlSteps},
		{kind: greenNFV, sla: s.minE, actors: o.Actors, seed: o.Seed, deploySeed: seed, steps: o.ControlSteps},
		{kind: greenNFV, sla: s.maxT, actors: o.Actors, seed: o.Seed, deploySeed: seed, steps: o.ControlSteps},
		{kind: greenNFV, sla: s.ee, actors: o.Actors, seed: o.Seed, deploySeed: seed, steps: o.ControlSteps},
	}
	cs, series, err := s.run(arms)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID:    "fig9",
		Title: "Model comparison: throughput and energy (paper Figure 9)",
		Columns: []string{"model", "Gbps", "Energy J", "Gbps/kJ",
			"speedup", "energy vs base"},
	}
	rows := make([]ComparisonRow, len(arms))
	base := &rows[0] // the Baseline, filled first
	for i, a := range arms {
		tput, energy := control.Settled(series[i], max(a.steps/4, 1))
		rows[i] = ComparisonRow{
			Name:           cs[i].Name(),
			ThroughputGbps: tput,
			EnergyJ:        energy,
			Efficiency:     tput / (energy / 1000),
		}
		rows[i].SpeedupVsBase = rows[i].ThroughputGbps / base.ThroughputGbps
		rows[i].EnergyVsBase = rows[i].EnergyJ / base.EnergyJ
		t.AddRow(rows[i].Name, f2(rows[i].ThroughputGbps), f0(rows[i].EnergyJ),
			f2(rows[i].Efficiency),
			fmt.Sprintf("%.2fx", rows[i].SpeedupVsBase),
			fmt.Sprintf("%.0f%%", rows[i].EnergyVsBase*100))
	}
	return t, rows, nil
}
