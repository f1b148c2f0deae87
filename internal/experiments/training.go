package experiments

import (
	"greennfv/internal/control"
	"greennfv/internal/sla"
)

// trainCurve trains one GreenNFV SLA model, a single train-only arm,
// and tabulates its training progress — the series the paper plots in
// Figures 6–8: throughput, energy, efficiency, and the trajectory of
// every control knob. The returned controller is the suite's shared
// model: step it only while no figure of the suite runs.
func (s *Suite) trainCurve(id, title string, target sla.SLA) (*Table, *control.GreenNFV, error) {
	cs, _, err := s.run([]arm{{kind: greenNFV, sla: target, actors: s.o.Actors, seed: s.o.Seed}})
	if err != nil {
		return nil, nil, err
	}
	g := cs[0].(*control.GreenNFV)
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"episode", "Gbps", "Energy kJ", "lambda", "CPU %",
			"GHz", "LLC %", "DMA MB", "batch", "reward"},
	}
	for _, snap := range g.Curve() {
		t.AddRow(itoa(snap.Episode), f2(snap.ThroughputGbps), f2(snap.EnergyJ/1000), f2(snap.Efficiency),
			f0(snap.CPUPercent), f2(snap.FreqGHz), f0(snap.LLCPercent), f1(snap.DMAMB), f0(snap.Batch), f2(snap.Reward))
	}
	return t, g, nil
}

// Fig6 reproduces the Maximum Throughput SLA training progress
// (paper Figure 6: E_SLA = 2000 J, five flows).
func (s *Suite) Fig6() (*Table, *control.GreenNFV, error) {
	return s.trainCurve("fig6", "Training progress, Maximum Throughput SLA (E<=2000J)", s.maxT)
}

// Fig7 reproduces the Minimum Energy SLA training progress
// (paper Figure 7: T_SLA = 7.5 Gbps).
func (s *Suite) Fig7() (*Table, *control.GreenNFV, error) {
	return s.trainCurve("fig7", "Training progress, Minimum Energy SLA (T>=7.5Gbps)", s.minE)
}

// Fig8 reproduces the Energy-Efficiency SLA training progress
// (paper Figure 8: unconstrained λ = T/E).
func (s *Suite) Fig8() (*Table, *control.GreenNFV, error) {
	return s.trainCurve("fig8", "Training progress, Energy-Efficiency SLA (max T/E)", s.ee)
}
