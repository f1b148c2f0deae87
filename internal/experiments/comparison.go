package experiments

import (
	"fmt"

	"greennfv/internal/control"
	"greennfv/internal/sla"
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
func Fig9(o Options) (*Table, []ComparisonRow, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	maxT, err := sla.NewMaxThroughput(2000)
	if err != nil {
		return nil, nil, err
	}
	minE, err := sla.NewMinEnergy(7.5)
	if err != nil {
		return nil, nil, err
	}
	ee := sla.NewEnergyEfficiency()

	// One arm per bar, each deployed from the same seed; a bar is the
	// settled mean of the last quarter of its deployment.
	seed := o.Seed + 1000
	arms := []arm{
		{control.NewBaseline(), envFactory(ee), seed, 12},
		{control.NewHeuristic(), envFactory(ee), seed, 400},
		{control.NewEEPstate(), envFactory(ee), seed, 50},
		{control.NewQLearning(ee, o.QTrainSteps), envFactory(ee), seed, o.ControlSteps},
		{control.NewGreenNFV(minE, o.TrainSteps, o.Actors, o.Seed), envFactory(minE), seed, o.ControlSteps},
		{control.NewGreenNFV(maxT, o.TrainSteps, o.Actors, o.Seed), envFactory(maxT), seed, o.ControlSteps},
		{control.NewGreenNFV(ee, o.TrainSteps, o.Actors, o.Seed), envFactory(ee), seed, o.ControlSteps},
	}
	series, err := runArms(arms)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]ComparisonRow, len(arms))
	for i, a := range arms {
		tput, energy := control.Settled(series[i], max(a.steps/4, 1))
		rows[i] = ComparisonRow{
			Name:           a.c.Name(),
			ThroughputGbps: tput,
			EnergyJ:        energy,
			Efficiency:     tput / (energy / 1000),
		}
	}
	base := rows[0]
	t := &Table{
		ID:    "fig9",
		Title: "Model comparison: throughput and energy (paper Figure 9)",
		Columns: []string{"model", "Gbps", "Energy J", "Gbps/kJ",
			"speedup", "energy vs base"},
	}
	for i := range rows {
		rows[i].SpeedupVsBase = rows[i].ThroughputGbps / base.ThroughputGbps
		rows[i].EnergyVsBase = rows[i].EnergyJ / base.EnergyJ
		t.AddRow(rows[i].Name, f2(rows[i].ThroughputGbps), f0(rows[i].EnergyJ),
			f2(rows[i].Efficiency),
			fmt.Sprintf("%.2fx", rows[i].SpeedupVsBase),
			fmt.Sprintf("%.0f%%", rows[i].EnergyVsBase*100))
	}
	return t, rows, nil
}
