package experiments

import "greennfv/internal/control"

// Fig11 reproduces the amortized energy-saving curve (paper Figure
// 11, equation 9): the saving of the trained Minimum-Energy model
// over the baseline as a function of operating hours, charging the
// RL training energy against the model. The paper reports 23% at one
// hour growing toward 62% as training amortizes.
func (s *Suite) Fig11() (*Table, error) {
	// Steady-state energies of the trained model and the baseline
	// under the same workload and deploy seed.
	o := s.o
	cs, series, err := s.run([]arm{
		{kind: greenNFV, sla: s.minE, actors: o.Actors, seed: o.Seed, deploySeed: o.Seed + 9, steps: o.ControlSteps},
		{kind: baseline, sla: s.minE, deploySeed: o.Seed + 9, steps: 8},
	})
	if err != nil {
		return nil, err
	}
	_, gEnergy := control.Settled(series[0], o.ControlSteps/2+1)
	_, bEnergy := control.Settled(series[1], 4)
	window := 10.0 // seconds per measurement interval
	pGreen := gEnergy / window
	pBase := bEnergy / window

	// Training power: the mean over the recorded training snapshots.
	var pTrain float64
	snaps := snapshots(cs[0])
	for _, sn := range snaps {
		pTrain += sn.EnergyJ / window
	}
	if len(snaps) > 0 {
		pTrain /= float64(len(snaps))
	} else {
		pTrain = pBase
	}
	// The paper trains once before deployment; a quarter hour of
	// wall-clock training on one node matches our measured training
	// runs and is charged in full against the model (eq. 9).
	const trainingHours = 0.25

	t := &Table{
		ID:      "fig11",
		Title:   "Amortized energy saving of MinE vs baseline, training energy included (eq. 9)",
		Columns: []string{"hours", "E_base kJ", "E_nf+train kJ", "saving %"},
	}
	eTrain := pTrain * trainingHours * 3600
	for h := 1; h <= 6; h++ {
		eBase := pBase * float64(h) * 3600
		eNF := pGreen*float64(h)*3600 + eTrain
		saving := (1 - eNF/eBase) * 100
		t.AddRow(itoa(h), f0(eBase/1000), f0(eNF/1000), f1(saving))
	}
	return t, nil
}
