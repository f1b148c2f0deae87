package experiments

import (
	"fmt"

	"greennfv/internal/control"
	"greennfv/internal/sla"
)

// trainCurve trains one GreenNFV SLA model, a single train-only arm,
// and tabulates its training progress — the series the paper plots in
// Figures 6–8: throughput, energy, efficiency, and the trajectory of
// every control knob.
func trainCurve(id, title string, s sla.SLA, o Options) (*Table, *control.GreenNFV, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	g := control.NewGreenNFV(s, o.TrainSteps, o.Actors, o.Seed)
	if _, err := runArms([]arm{{c: g, env: envFactory(s)}}); err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"episode", "Gbps", "Energy kJ", "lambda", "CPU %",
			"GHz", "LLC %", "DMA MB", "batch", "reward"},
	}
	for _, snap := range g.Trainer().Snapshots {
		t.AddRow(
			fmt.Sprintf("%d", snap.Episode),
			f2(snap.ThroughputGbps),
			f2(snap.EnergyJ/1000),
			f2(snap.Efficiency),
			f0(snap.CPUPercent),
			f2(snap.FreqGHz),
			f0(snap.LLCPercent),
			f1(snap.DMAMB),
			f0(snap.Batch),
			f2(snap.Reward),
		)
	}
	return t, g, nil
}

// Fig6 reproduces the Maximum Throughput SLA training progress
// (paper Figure 6: E_SLA = 2000 J, five flows).
func Fig6(o Options) (*Table, *control.GreenNFV, error) {
	s, err := sla.NewMaxThroughput(2000)
	if err != nil {
		return nil, nil, err
	}
	return trainCurve("fig6", "Training progress, Maximum Throughput SLA (E<=2000J)", s, o)
}

// Fig7 reproduces the Minimum Energy SLA training progress
// (paper Figure 7: T_SLA = 7.5 Gbps).
func Fig7(o Options) (*Table, *control.GreenNFV, error) {
	s, err := sla.NewMinEnergy(7.5)
	if err != nil {
		return nil, nil, err
	}
	return trainCurve("fig7", "Training progress, Minimum Energy SLA (T>=7.5Gbps)", s, o)
}

// Fig8 reproduces the Energy-Efficiency SLA training progress
// (paper Figure 8: unconstrained λ = T/E).
func Fig8(o Options) (*Table, *control.GreenNFV, error) {
	return trainCurve("fig8", "Training progress, Energy-Efficiency SLA (max T/E)",
		sla.NewEnergyEfficiency(), o)
}
