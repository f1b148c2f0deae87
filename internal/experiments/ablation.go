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

// The ablations quantify the design choices DESIGN.md calls out,
// beyond the paper's own evaluation: prioritized vs uniform replay,
// Ape-X actor-count scaling, per-knob contribution, and the paper's
// hard-constraint reward vs penalty shaping.

// trainEE runs one Ape-X training with the given overrides and
// returns the mean efficiency of the last quarter of snapshots.
func trainEE(o Options, actors int, frozen [env.KnobsPerNF]bool, s sla.SLA) (float64, *apex.Trainer, error) {
	cfg := apex.DefaultTrainerConfig(o.TrainSteps)
	cfg.Actors = actors
	cfg.StepperFactory = func(actorID int) (env.Stepper, error) {
		return env.New(env.Config{
			Model:       perfmodel.Default(),
			Chain:       perfmodel.StandardChain(),
			Bounds:      perfmodel.DefaultBounds(),
			SLA:         s,
			Flows:       env.StandardWorkload(),
			LoadJitter:  0.03,
			FrozenKnobs: frozen,
			Seed:        o.Seed + int64(actorID)*131,
		})
	}
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = o.Seed
	trainer, err := apex.NewTrainer(cfg)
	if err != nil {
		return 0, nil, err
	}
	if err := trainer.Run(); err != nil {
		return 0, nil, err
	}
	snaps := trainer.Snapshots
	if len(snaps) == 0 {
		return 0, trainer, nil
	}
	start := len(snaps) * 3 / 4
	var sum float64
	for _, sn := range snaps[start:] {
		sum += sn.Efficiency
	}
	return sum / float64(len(snaps)-start), trainer, nil
}

// AblationPER compares prioritized vs uniform replay at equal budget
// (the Ape-X design claim), holding everything else fixed: both arms
// train one DDPG agent through the identical single-actor loop.
func AblationPER(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// The two arms are independent trainings; run them concurrently.
	var per, uni float64
	_, err := pool.ForEach(2, batchWorkers(), func(i int) error {
		var err error
		if i == 0 {
			per, err = trainEESingle(o, true)
		} else {
			uni, err = trainEESingle(o, false)
		}
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
	t.AddRow("prioritized", f2(per))
	t.AddRow("uniform", f2(uni))
	return t, nil
}

// trainEESingle is one single-agent DDPG training arm with the
// replay variant selected by prioritized.
func trainEESingle(o Options, prioritized bool) (float64, error) {
	e, err := env.New(env.Config{
		Model:      perfmodel.Default(),
		Chain:      perfmodel.StandardChain(),
		Bounds:     perfmodel.DefaultBounds(),
		SLA:        sla.NewEnergyEfficiency(),
		Flows:      env.StandardWorkload(),
		LoadJitter: 0.03,
		Seed:       o.Seed,
	})
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
	var lastEffs []float64
	for i := 0; i < o.TrainSteps; i++ {
		action, err := agent.Act(state, true)
		if err != nil {
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
			lastEffs = append(lastEffs, info.Efficiency)
		}
	}
	var sum float64
	for _, v := range lastEffs {
		sum += v
	}
	if len(lastEffs) == 0 {
		return 0, nil
	}
	return sum / float64(len(lastEffs)), nil
}

// AblationActors sweeps the Ape-X actor count at a fixed total step
// budget.
func AblationActors(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-actors",
		Title:   "Ape-X actor-count scaling (fixed total steps)",
		Columns: []string{"actors", "efficiency"},
	}
	counts := []int{1, 2, 4, 8}
	effs := make([]float64, len(counts))
	_, err := pool.ForEach(len(counts), batchWorkers(), func(i int) error {
		eff, _, err := trainEE(o, counts[i], [env.KnobsPerNF]bool{}, sla.NewEnergyEfficiency())
		effs[i] = eff
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, actors := range counts {
		t.AddRow(itoa(actors), f2(effs[i]))
	}
	return t, nil
}

// AblationKnobs freezes one knob at a time at platform defaults and
// retrains, quantifying each knob's contribution.
func AblationKnobs(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names := []string{"CPU share", "frequency", "LLC", "DMA", "batch"}
	t := &Table{
		ID:      "ablation-knobs",
		Title:   "Knob contribution: efficiency with each knob frozen at defaults",
		Columns: []string{"frozen knob", "efficiency", "vs all-tunable"},
	}
	// Arm 0 is the all-tunable reference; arms 1..5 freeze one knob
	// each. All six trainings are independent, so they share the pool.
	effs := make([]float64, env.KnobsPerNF+1)
	_, err := pool.ForEach(len(effs), batchWorkers(), func(i int) error {
		var frozen [env.KnobsPerNF]bool
		if i > 0 {
			frozen[i-1] = true
		}
		eff, _, err := trainEE(o, o.Actors, frozen, sla.NewEnergyEfficiency())
		effs[i] = eff
		return err
	})
	if err != nil {
		return nil, err
	}
	full := effs[0]
	t.AddRow("(none)", f2(full), "100%")
	for i := 0; i < env.KnobsPerNF; i++ {
		t.AddRow(names[i], f2(effs[i+1]), f0(effs[i+1]/full*100)+"%")
	}
	return t, nil
}

// AblationReward compares the paper's hard-constraint reward (zero
// outside the constraint) against penalty shaping for the
// MaxThroughput SLA, reporting throughput and violation rate.
func AblationReward(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	hard, err := sla.NewMaxThroughput(2000)
	if err != nil {
		return nil, err
	}
	shaped := hard
	shaped.PenaltyWeight = 2.0

	t := &Table{
		ID:      "ablation-reward",
		Title:   "Hard-constraint (paper) vs penalty-shaped reward, MaxT SLA E<=2000J",
		Columns: []string{"reward", "Gbps", "Energy J", "violation rate"},
	}
	entries := []struct {
		name string
		s    sla.SLA
	}{{"hard (paper)", hard}, {"penalty-shaped", shaped}}
	type armOut struct {
		tput, energy, violation float64
	}
	outs := make([]armOut, len(entries))
	_, err = pool.ForEach(len(entries), batchWorkers(), func(i int) error {
		_, trainer, err := trainEE(o, o.Actors, [env.KnobsPerNF]bool{}, entries[i].s)
		if err != nil {
			return err
		}
		snaps := trainer.Snapshots
		tracker := sla.NewTracker(entries[i].s)
		var tput, energy float64
		n := 0
		for _, sn := range snaps[len(snaps)*3/4:] {
			tracker.Observe(sn.ThroughputGbps, sn.EnergyJ)
			tput += sn.ThroughputGbps
			energy += sn.EnergyJ
			n++
		}
		if n == 0 {
			n = 1
		}
		outs[i] = armOut{tput / float64(n), energy / float64(n), tracker.ViolationRate()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, entry := range entries {
		t.AddRow(entry.name, f2(outs[i].tput), f0(outs[i].energy), f2(outs[i].violation))
	}
	return t, nil
}
