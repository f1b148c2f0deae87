package experiments

import (
	"greennfv/internal/control"
	"greennfv/internal/pool"
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

	t := &Table{
		ID:    "fig10",
		Title: "Fixed-SLA deployment over time (paper Figure 10)",
		Columns: []string{"t (s)", "MaxTh Gbps", "MaxTh kJ", "MaxTh ok",
			"MinE Gbps", "MinE kJ", "MinE ok"},
	}

	type run struct {
		s       sla.SLA
		c       *control.GreenNFV
		tputs   []float64
		energys []float64
		oks     []bool
	}
	runs := []*run{
		{s: maxT, c: control.NewGreenNFV(maxT, o.TrainSteps, o.Actors, o.Seed)},
		{s: minE, c: control.NewGreenNFV(minE, o.TrainSteps, o.Actors, o.Seed+5)},
	}
	const intervals = 12 // 120 s at the 10 s window
	// Both deployments — training included — are independent, so they
	// run concurrently over the bounded pool. Each closure touches only
	// index-i state, and the per-run seeds are unchanged, so the time
	// series match the serial loop exactly.
	_, err = pool.ForEach(len(runs), batchWorkers(), func(i int) error {
		r := runs[i]
		e, err := Factory(r.s)(o.Seed+42, r.c.Options())
		if err != nil {
			return err
		}
		if err := r.c.Prepare(Factory(r.s)); err != nil {
			return err
		}
		tracker := sla.NewTracker(r.s)
		for j := 0; j < intervals; j++ {
			res, err := r.c.Step(e)
			if err != nil {
				return err
			}
			tracker.Observe(res.ThroughputGbps, res.EnergyJoules)
			r.tputs = append(r.tputs, res.ThroughputGbps)
			r.energys = append(r.energys, res.EnergyJoules)
			r.oks = append(r.oks, r.s.Satisfied(res.ThroughputGbps, res.EnergyJoules))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < intervals; i++ {
		t.AddRow(
			itoa((i+1)*10),
			f2(runs[0].tputs[i]), f2(runs[0].energys[i]/1000), okMark(runs[0].oks[i]),
			f2(runs[1].tputs[i]), f2(runs[1].energys[i]/1000), okMark(runs[1].oks[i]),
		)
	}
	return t, nil
}

func okMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "VIOLATION"
}
