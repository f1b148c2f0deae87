package experiments

import (
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/pool"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// The ablations quantify design choices beyond the paper's own
// evaluation: prioritized vs uniform replay, Ape-X actor-count
// scaling, per-knob contribution, and the paper's hard-constraint
// reward vs penalty shaping.

// lateEfficiency is the mean efficiency of the last quarter of a
// training's snapshots, 0 without any.
func lateEfficiency(snaps []apex.Snapshot) float64 {
	late := snaps[len(snaps)*3/4:]
	if len(late) == 0 {
		return 0
	}
	var sum float64
	for _, sn := range late {
		sum += sn.Efficiency
	}
	return sum / float64(len(late))
}

// AblationPER compares prioritized vs uniform replay at equal budget
// (the Ape-X design claim), holding everything else fixed: both arms
// train one DDPG agent through the identical single-actor loop. It is
// the one trained table that runs no arms: its trainings are single
// agents, not Ape-X controllers.
func (s *Suite) AblationPER() (*Table, error) {
	// The two trainings are independent; run them concurrently.
	var eff [2]float64 // prioritized, uniform
	err := pool.ForEach(2, 0, func(i int) error {
		var err error
		eff[i], err = s.trainEESingle(i == 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-per",
		Title:   "Prioritized vs uniform replay (final-quarter mean efficiency, Gbps/kJ)",
		Columns: []string{"replay", "efficiency"},
	}
	t.AddRow("prioritized", f2(eff[0]))
	t.AddRow("uniform", f2(eff[1]))
	return t, nil
}

// trainEESingle is one single-agent DDPG training with the replay
// variant selected by prioritized.
func (s *Suite) trainEESingle(prioritized bool) (float64, error) {
	o := s.o
	e, err := arm{sla: s.ee}.envFactory()(o.Seed, perfmodel.EvalOptions{})
	if err != nil {
		return 0, err
	}
	cfg := ddpg.DefaultConfig(e.StateDim(), e.ActionDim())
	cfg.Prioritized = prioritized
	cfg.Seed = o.Seed
	agent, err := ddpg.New(cfg)
	if err != nil {
		return 0, err
	}
	state := e.Reset(o.Seed)
	var sum float64 // efficiency over the last quarter of the steps
	for i := 0; i < o.TrainSteps; i++ {
		action := make([]float64, cfg.ActionDim) // the replay keeps it
		if err := agent.ActInto(state, true, action); err != nil {
			return 0, err
		}
		next, reward, info, err := e.Step(action)
		if err != nil {
			return 0, err
		}
		agent.Observe(replay.Transition{
			State:     append([]float64(nil), state...),
			Action:    action,
			Reward:    reward,
			NextState: append([]float64(nil), next...),
		})
		agent.Learn()
		state = next
		if i >= o.TrainSteps*3/4 {
			sum += info.Efficiency
		}
	}
	return sum / float64(o.TrainSteps-o.TrainSteps*3/4), nil
}

// AblationActors sweeps the Ape-X actor count at a fixed total step
// budget.
func (s *Suite) AblationActors() (*Table, error) {
	counts := []int{1, 2, 4, 8}
	arms := make([]arm, len(counts))
	for i, actors := range counts {
		arms[i] = arm{kind: greenNFV, sla: s.ee, actors: actors, seed: s.o.Seed}
	}
	cs, _, err := s.run(arms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-actors",
		Title:   "Ape-X actor-count scaling (fixed total steps)",
		Columns: []string{"actors", "efficiency"},
	}
	for i, actors := range counts {
		t.AddRow(itoa(actors), f2(lateEfficiency(snapshots(cs[i]))))
	}
	return t, nil
}

// AblationKnobs freezes one knob at a time at platform defaults and
// retrains, quantifying each knob's contribution.
func (s *Suite) AblationKnobs() (*Table, error) {
	// Arm 0 is the all-tunable reference; arm k+1 freezes knob k.
	arms := make([]arm, 1+env.KnobsPerNF)
	for i := range arms {
		arms[i] = arm{kind: greenNFV, sla: s.ee, actors: s.o.Actors, seed: s.o.Seed}
		if i > 0 {
			arms[i].frozen[i-1] = true
		}
	}
	cs, _, err := s.run(arms)
	if err != nil {
		return nil, err
	}
	names := []string{"CPU share", "frequency", "LLC", "DMA", "batch"}
	t := &Table{
		ID:      "ablation-knobs",
		Title:   "Knob contribution: efficiency with each knob frozen at defaults",
		Columns: []string{"frozen knob", "efficiency", "vs all-tunable"},
	}
	full := lateEfficiency(snapshots(cs[0]))
	t.AddRow("(none)", f2(full), "100%")
	for k, name := range names {
		eff := lateEfficiency(snapshots(cs[k+1]))
		t.AddRow(name, f2(eff), f0(eff/full*100)+"%")
	}
	return t, nil
}

// AblationReward compares the paper's hard-constraint reward (zero
// outside the constraint) against penalty shaping for the
// MaxThroughput SLA, reporting throughput and violation rate over the
// last quarter of training.
func (s *Suite) AblationReward() (*Table, error) {
	shaped := s.maxT
	shaped.PenaltyWeight = 2.0

	names := []string{"hard (paper)", "penalty-shaped"}
	arms := []arm{
		{kind: greenNFV, sla: s.maxT, actors: s.o.Actors, seed: s.o.Seed},
		{kind: greenNFV, sla: shaped, actors: s.o.Actors, seed: s.o.Seed},
	}
	cs, _, err := s.run(arms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-reward",
		Title:   "Hard-constraint (paper) vs penalty-shaped reward, MaxT SLA E<=2000J",
		Columns: []string{"reward", "Gbps", "Energy J", "violation rate"},
	}
	for i, a := range arms {
		snaps := snapshots(cs[i])
		late := snaps[len(snaps)*3/4:]
		tracker := sla.NewTracker(a.sla)
		var tput, energy float64
		for _, sn := range late {
			tracker.Observe(sn.ThroughputGbps, sn.EnergyJ)
			tput += sn.ThroughputGbps
			energy += sn.EnergyJ
		}
		n := float64(max(len(late), 1))
		t.AddRow(names[i], f2(tput/n), f0(energy/n), f2(tracker.ViolationRate()))
	}
	return t, nil
}
