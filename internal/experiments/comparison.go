package experiments

import (
	"fmt"

	"greennfv/internal/control"
	"greennfv/internal/pool"
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

	controllers := []struct {
		c     control.Controller
		s     sla.SLA
		steps int
	}{
		{control.NewBaseline(), ee, 12},
		{control.NewHeuristic(), ee, 400},
		{control.NewEEPstate(), ee, 50},
		{control.NewQLearning(ee, o.QTrainSteps), ee, o.ControlSteps},
		{control.NewGreenNFV(minE, o.TrainSteps, o.Actors, o.Seed), minE, o.ControlSteps},
		{control.NewGreenNFV(maxT, o.TrainSteps, o.Actors, o.Seed), maxT, o.ControlSteps},
		{control.NewGreenNFV(ee, o.TrainSteps, o.Actors, o.Seed), ee, o.ControlSteps},
	}

	// The controller pipelines share nothing mutable — each Prepare
	// trains against its own environments and seeds — so they run
	// concurrently over the bounded pool; rows[i] keeps the bar order
	// of the serial loop and the numbers are identical to it.
	rows := make([]ComparisonRow, len(controllers))
	_, err = pool.ForEach(len(controllers), batchWorkers(), func(i int) error {
		entry := controllers[i]
		factory := Factory(entry.s)
		if err := entry.c.Prepare(factory); err != nil {
			return fmt.Errorf("prepare %s: %w", entry.c.Name(), err)
		}
		settle := entry.steps / 4
		if settle < 1 {
			settle = 1
		}
		tput, energy, _, err := control.Run(entry.c, factory, o.Seed+1000, entry.steps, settle)
		if err != nil {
			return fmt.Errorf("run %s: %w", entry.c.Name(), err)
		}
		rows[i] = ComparisonRow{
			Name:           entry.c.Name(),
			ThroughputGbps: tput,
			EnergyJ:        energy,
			Efficiency:     tput / (energy / 1000),
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
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
