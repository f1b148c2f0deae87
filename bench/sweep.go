package main

import (
	"fmt"

	"greennfv/internal/cluster"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
	"greennfv/internal/sweep"
)

const (
	sweepNodes  = 4
	sweepChains = 6
)

// clusterEnv builds the environment a hetero-4 sweep cell trains on
// (the mirror of the sweep package's unexported cell factory): six
// preset chains in one service-function path with a 150 µs budget,
// each carrying the standard mix at half rate.
func clusterEnv(seed int64, pol placement.Policy) (*env.ClusterEnv, error) {
	chains, hops := env.StandardClusterChains(sweepChains)
	mix := sweep.DefaultMixes()[0]
	return env.NewCluster(env.ClusterConfig{
		Topology:        cluster.Heterogeneous(sweepNodes),
		Chains:          chains,
		Hops:            hops,
		LatencyBudgetNs: 150e3,
		Bounds:          perfmodel.DefaultBounds(),
		SLA:             sla.NewEnergyEfficiency(),
		LoadJitter:      mix.LoadJitter,
		Seed:            seed,
		Placement:       pol,
	})
}

// newClusterTrainer wires the trainer control.ClusterGreenNFV.Prepare
// builds for one cell.
func newClusterTrainer(seed int64, steps int, pol placement.Policy) (*apex.Trainer, apex.TrainerConfig, error) {
	cfg := apex.DefaultTrainerConfig(steps)
	cfg.Actors = trainActors
	cfg.StepperFactory = func(actorID int) (env.Stepper, error) {
		return clusterEnv(seed+int64(actorID)*131, pol)
	}
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = seed
	t, err := apex.NewTrainer(cfg)
	return t, cfg, err
}

func sweepConfig(seed int64, sz sizes) sweep.Config {
	return sweep.Config{
		Seeds:        []int64{seed},
		Tiers:        []sweep.Tier{{Name: "ee", SLA: sla.NewEnergyEfficiency()}},
		Mixes:        sweep.DefaultMixes()[:1],
		Topos:        []sweep.Topo{{Name: "hetero-4", Nodes: sweepNodes}},
		Placements:   sweep.DefaultPlacements(),
		TrainSteps:   sz.sweepTrain,
		Actors:       trainActors,
		ControlSteps: sz.sweepControl,
		Workers:      1,
	}
}

// sweepRep is one rep of sweep_cluster: one sweep.Run over a three-cell
// grid, one cell per placement policy.
type sweepRep struct {
	cfg sweep.Config
	// trainer is the set-up's product, kept so that live_heap_mb reads
	// what a cell holds while it trains.
	trainer *apex.Trainer
	rows    []sweep.Result
}

// buildSweepRep is sweep_cluster's set-up: what one cell constructs
// before it trains (four cluster environments and the trainer over
// them). sweep.Run builds its own, inside the timed section and out of
// reach; this one is what setup_s and live_heap_mb can see of it.
func buildSweepRep(seed int64, sz sizes) (*sweepRep, error) {
	trainer, _, err := newClusterTrainer(seed, sz.sweepTrain, nil)
	if err != nil {
		return nil, err
	}
	return &sweepRep{cfg: sweepConfig(seed, sz), trainer: trainer}, nil
}

// warm runs one small pinned-placement cell so the first timed cell
// does not pay for cold caches.
func (s *sweepRep) warm() error {
	cfg := s.cfg
	cfg.Placements = cfg.Placements[1:2]
	cfg.TrainSteps = cfg.TrainSteps / 4
	_, err := sweep.Run(cfg)
	return err
}

func (s *sweepRep) run() (int, error) {
	// sweep.Run records a failing cell in its row and also returns the
	// first such error; the rows are what decides.
	rows, err := sweep.Run(s.cfg)
	if len(rows) != s.cfg.Cells() {
		return s.cfg.Cells(), fmt.Errorf("%d rows for %d cells: %v", len(rows), s.cfg.Cells(), err)
	}
	s.rows = rows
	failed := 0
	for _, r := range rows {
		if r.Error != "" {
			failed++
		}
	}
	return failed, nil
}

func (s *sweepRep) outputs() (outputs, error) {
	var out outputs
	for _, r := range s.rows {
		if r.Error != "" {
			return out, fmt.Errorf("cell %s: %s", r.Placement, r.Error)
		}
		if !positive(r.ThroughputGbps, r.EnergyJ, r.Efficiency) {
			return out, fmt.Errorf("cell %s: result not finite and positive: %+v", r.Placement, r)
		}
		if r.ViolationRate != 0 {
			return out, fmt.Errorf("cell %s: violation share %v under the Efficiency SLA", r.Placement, r.ViolationRate)
		}
		out.efficiency += r.Efficiency
		out.counts = append(out.counts,
			count{"sweep." + r.Placement + ".throughput_gbps", r.ThroughputGbps},
			count{"sweep." + r.Placement + ".energy_j", r.EnergyJ},
			count{"sweep." + r.Placement + ".nodes_used", float64(r.NodesUsed)},
			count{"sweep." + r.Placement + ".link_energy_j", r.LinkEnergyJ},
		)
	}
	out.efficiency /= float64(len(s.rows))
	return out, nil
}

func (s *sweepRep) close() error { return nil }

func sweepCluster(seed int64, sz sizes) *workload {
	return &workload{
		name:     "sweep_cluster",
		why:      "one grid cell of sweep.Run on a 4-node heterogeneous cluster, one per placement policy: the only user of cluster, placement and ClusterEnv, with wide NN input and output layers",
		ops:      sweepConfig(seed, sz).Cells(),
		opName:   "sweep grid cell",
		reps:     2 * sz.variants,
		variants: sz.variants,
		build: func(v int) (instance, error) {
			return buildSweepRep(deriveSeed(seed, v), sz)
		},
	}
}
