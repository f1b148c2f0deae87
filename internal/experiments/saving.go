package experiments

import (
	"greennfv/internal/control"
	"greennfv/internal/pool"
	"greennfv/internal/sla"
)

// Fig11 reproduces the amortized energy-saving curve (paper Figure
// 11, equation 9): the saving of the trained Minimum-Energy model
// over the baseline as a function of operating hours, charging the
// RL training energy against the model. The paper reports 23% at one
// hour growing toward 62% as training amortizes.
func Fig11(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	minE, err := sla.NewMinEnergy(7.5)
	if err != nil {
		return nil, err
	}
	g := control.NewGreenNFV(minE, o.TrainSteps, o.Actors, o.Seed)
	factory := Factory(minE)
	// Steady-state energies of the trained model and the baseline
	// under the same workload. The two pipelines are independent
	// (separate controllers, environments and seeds), so they run
	// concurrently; the numbers are identical to the serial order.
	var gEnergy, bEnergy float64
	_, err = pool.ForEach(2, batchWorkers(), func(i int) error {
		var err error
		switch i {
		case 0:
			if err = g.Prepare(factory); err != nil {
				return err
			}
			_, gEnergy, _, err = control.Run(g, factory, o.Seed+9, o.ControlSteps, o.ControlSteps/2+1)
		case 1:
			_, bEnergy, _, err = control.Run(control.NewBaseline(), factory, o.Seed+9, 8, 4)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	window := 10.0 // seconds per measurement interval
	pGreen := gEnergy / window
	pBase := bEnergy / window

	// Training energy: mean power observed across the recorded
	// training snapshots, over a nominal half-hour training session
	// (the paper trains once before deployment).
	var pTrain float64
	snaps := g.Trainer().Snapshots
	for _, s := range snaps {
		pTrain += s.EnergyJ / window
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
