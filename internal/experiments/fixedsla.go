package experiments

// Fig10 reproduces the fixed-SLA time series (paper Figure 10):
// (a) Maximum Throughput SLA with a 3.3 kJ energy budget and (b)
// Minimum Energy SLA with a 7 Gbps floor, each deployed for 120
// seconds of control (12 ten-second intervals) after training,
// showing the settle-in behaviour.
func (s *Suite) Fig10() (*Table, error) {
	const intervals = 12 // 120 s at the 10 s window
	o := s.o
	arms := []arm{
		{kind: greenNFV, sla: s.maxT3300, actors: o.Actors, seed: o.Seed, deploySeed: o.Seed + 42, steps: intervals},
		{kind: greenNFV, sla: s.minE7, actors: o.Actors, seed: o.Seed + 5, deploySeed: o.Seed + 42, steps: intervals},
	}
	_, series, err := s.run(arms)
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
		for j, a := range arms {
			r := series[j][i]
			row = append(row, f2(r.ThroughputGbps), f2(r.EnergyJoules/1000),
				okMark(a.sla.Satisfied(r.ThroughputGbps, r.EnergyJoules)))
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
