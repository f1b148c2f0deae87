package experiments

import (
	"greennfv/internal/control"
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
// the one trained table outside runArms: its arms are single agents,
// not Ape-X controllers.
func AblationPER(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// The two arms are independent trainings; run them concurrently.
	var per, uni float64
	err := pool.ForEach(2, 0, func(i int) error {
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
	e, err := envFactory(sla.NewEnergyEfficiency())(o.Seed, perfmodel.EvalOptions{})
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
	var sum float64
	n := 0
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
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// AblationActors sweeps the Ape-X actor count at a fixed total step
// budget.
func AblationActors(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ee := sla.NewEnergyEfficiency()
	counts := []int{1, 2, 4, 8}
	arms := make([]arm, len(counts))
	for i, actors := range counts {
		arms[i] = arm{c: control.NewGreenNFV(ee, o.TrainSteps, actors, o.Seed), env: envFactory(ee)}
	}
	if _, err := runArms(arms); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-actors",
		Title:   "Ape-X actor-count scaling (fixed total steps)",
		Columns: []string{"actors", "efficiency"},
	}
	for i, actors := range counts {
		t.AddRow(itoa(actors), f2(lateEfficiency(snapshots(arms[i]))))
	}
	return t, nil
}

// AblationKnobs freezes one knob at a time at platform defaults and
// retrains, quantifying each knob's contribution.
func AblationKnobs(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// Arm 0 is the all-tunable reference; arm k+1 freezes knob k.
	ee := sla.NewEnergyEfficiency()
	arms := []arm{{c: control.NewGreenNFV(ee, o.TrainSteps, o.Actors, o.Seed), env: envFactory(ee)}}
	for k := 0; k < env.KnobsPerNF; k++ {
		arms = append(arms, arm{c: control.NewGreenNFV(ee, o.TrainSteps, o.Actors, o.Seed), env: envFactory(ee, k)})
	}
	if _, err := runArms(arms); err != nil {
		return nil, err
	}
	names := []string{"CPU share", "frequency", "LLC", "DMA", "batch"}
	t := &Table{
		ID:      "ablation-knobs",
		Title:   "Knob contribution: efficiency with each knob frozen at defaults",
		Columns: []string{"frozen knob", "efficiency", "vs all-tunable"},
	}
	full := lateEfficiency(snapshots(arms[0]))
	t.AddRow("(none)", f2(full), "100%")
	for k, name := range names {
		eff := lateEfficiency(snapshots(arms[k+1]))
		t.AddRow(name, f2(eff), f0(eff/full*100)+"%")
	}
	return t, nil
}

// AblationReward compares the paper's hard-constraint reward (zero
// outside the constraint) against penalty shaping for the
// MaxThroughput SLA, reporting throughput and violation rate over the
// last quarter of training.
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

	names := []string{"hard (paper)", "penalty-shaped"}
	slas := []sla.SLA{hard, shaped}
	arms := make([]arm, len(slas))
	for i, s := range slas {
		arms[i] = arm{c: control.NewGreenNFV(s, o.TrainSteps, o.Actors, o.Seed), env: envFactory(s)}
	}
	if _, err := runArms(arms); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-reward",
		Title:   "Hard-constraint (paper) vs penalty-shaped reward, MaxT SLA E<=2000J",
		Columns: []string{"reward", "Gbps", "Energy J", "violation rate"},
	}
	for i, s := range slas {
		snaps := snapshots(arms[i])
		late := snaps[len(snaps)*3/4:]
		tracker := sla.NewTracker(s)
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
