package experiments

import (
	"greennfv/internal/control"
	"greennfv/internal/sla"
)

// Fig10 reproduces the fixed-SLA time series (paper Figure 10):
// (a) Maximum Throughput SLA with a 3.3 kJ energy budget and (b)
// Minimum Energy SLA with a 7 Gbps floor, each deployed for 120
// seconds of control (12 ten-second intervals) after training,
// showing the settle-in behaviour.
func Fig10(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	maxT, err := sla.NewMaxThroughput(3300)
	if err != nil {
		return nil, err
	}
	minE, err := sla.NewMinEnergy(7.0)
	if err != nil {
		return nil, err
	}

	const intervals = 12 // 120 s at the 10 s window
	slas := []sla.SLA{maxT, minE}
	series, err := runArms([]arm{
		{control.NewGreenNFV(maxT, o.TrainSteps, o.Actors, o.Seed), envFactory(maxT), o.Seed + 42, intervals},
		{control.NewGreenNFV(minE, o.TrainSteps, o.Actors, o.Seed+5), envFactory(minE), o.Seed + 42, intervals},
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig10",
		Title: "Fixed-SLA deployment over time (paper Figure 10)",
		Columns: []string{"t (s)", "MaxTh Gbps", "MaxTh kJ", "MaxTh ok",
			"MinE Gbps", "MinE kJ", "MinE ok"},
	}
	for i := 0; i < intervals; i++ {
		row := []string{itoa((i + 1) * 10)}
		for j, s := range slas {
			r := series[j][i]
			row = append(row, f2(r.ThroughputGbps), f2(r.EnergyJoules/1000),
				okMark(s.Satisfied(r.ThroughputGbps, r.EnergyJoules)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func okMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "VIOLATION"
}
