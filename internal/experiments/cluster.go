package experiments

import (
	"greennfv/internal/env"
	"greennfv/internal/sweep"
)

// FigCluster is the cluster scale-out study the paper never had:
// energy versus cluster size at 2, 4, and 8 heterogeneous nodes,
// comparing the DRL placement head against the FFD+swap and
// relaxation-and-rounding analytic baselines, all three training the
// same DDPG knob policy. It is a sweep grid plus a formatter: one
// seed, the Energy-Efficiency SLA, the standard mix, three topologies
// × three placements, each cell trained and measured by sweep.Run
// (six preset chains in one service-function path under a 150 µs
// end-to-end latency budget — a fully split path pays 5 × 50 µs and
// busts it, the SLA pressure that makes placement matter).
// Deterministic (round-robin training, fixed seeds): the table
// byte-diffs across runs.
func (s *Suite) FigCluster() (*Table, []sweep.Result, error) {
	rows, err := sweep.Run(sweep.Config{
		Seeds: []int64{s.o.Seed},
		Tiers: []sweep.Tier{{Name: "ee", SLA: s.ee}},
		Mixes: []sweep.Mix{{Name: "standard", Flows: env.StandardWorkload(), LoadJitter: 0.05}},
		Topos: []sweep.Topo{
			{Name: "hetero-2", Nodes: 2}, {Name: "hetero-4", Nodes: 4}, {Name: "hetero-8", Nodes: 8},
		},
		Placements:   sweep.DefaultPlacements(),
		TrainSteps:   s.o.TrainSteps,
		Actors:       s.o.Actors,
		ControlSteps: s.o.ControlSteps,
	})
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID:    "figcluster",
		Title: "Cluster scale-out: energy vs cluster size, DRL vs analytic placement",
		Columns: []string{"nodes", "placement", "Gbps", "Energy J", "Link J",
			"nodes used", "Gbps/kJ"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.Nodes), r.Placement, f2(r.ThroughputGbps), f0(r.EnergyJ),
			f1(r.LinkEnergyJ), itoa(r.NodesUsed), f2(r.Efficiency))
	}
	return t, rows, nil
}
