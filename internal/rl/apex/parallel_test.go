package apex

import (
	"math"
	"testing"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// TestParallelTrainerSmoke runs a short concurrent training session
// (meaningful under -race) and checks the basic invariants the
// deterministic mode guarantees: monotone snapshot episodes, finite
// rewards and measurements, and a learner that actually learned.
func TestParallelTrainerSmoke(t *testing.T) {
	cfg := DefaultTrainerConfig(600)
	cfg.Actors = 3
	cfg.Parallel = true
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 11
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}

	if len(tr.Snapshots) == 0 {
		t.Fatal("parallel run recorded no snapshots")
	}
	prev := 0
	for _, s := range tr.Snapshots {
		if s.Episode <= prev {
			t.Errorf("snapshot episodes not monotone: %d after %d", s.Episode, prev)
		}
		prev = s.Episode
		if math.IsNaN(s.Reward) || math.IsNaN(s.ThroughputGbps) || math.IsNaN(s.EnergyJ) {
			t.Errorf("snapshot %d has NaN fields: %+v", s.Episode, s)
		}
		if s.ThroughputGbps < 0 || s.EnergyJ <= 0 {
			t.Errorf("snapshot %d: tput=%v energy=%v", s.Episode, s.ThroughputGbps, s.EnergyJ)
		}
	}

	total := 0
	for _, a := range tr.Actors() {
		total += a.Steps()
	}
	if total != 600 {
		t.Errorf("actors took %d steps, want exactly 600", total)
	}
	if tr.Learner().Agent().LearnSteps() == 0 {
		t.Error("parallel learner never updated")
	}
	_, transitions := tr.Learner().Stats()
	if transitions < 400 {
		t.Errorf("learner received only %d transitions", transitions)
	}

	// The trained policy must evaluate cleanly.
	e, err := envFactory(sla.NewEnergyEfficiency())(7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.GreedyEval(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps <= 0 || math.IsNaN(res.ThroughputGbps) {
		t.Errorf("greedy eval after parallel training: %+v", res)
	}
}

// TestParallelFloat32 runs the concurrent mode with the
// single-precision learner (meaningful under -race: actors pull f64
// broadcasts that ActorBytes flushes from the f32 mirrors while the
// learner trains) and checks the run completes with the full update
// budget, the policy lands back in f64 for greedy evaluation, and the
// f32 path is switched off after the run.
func TestParallelFloat32(t *testing.T) {
	cfg := DefaultTrainerConfig(400)
	cfg.Actors = 2
	cfg.Parallel = true
	cfg.Float32 = true
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 13
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	want := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)
	agent := tr.Learner().Agent()
	if got := agent.LearnSteps(); got != want {
		t.Errorf("f32 learner ran %d updates, want %d", got, want)
	}
	if agent.Float32() {
		t.Error("f32 path still enabled after the run")
	}
	e, err := envFactory(sla.NewEnergyEfficiency())(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.GreedyEval(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps <= 0 || math.IsNaN(res.ThroughputGbps) {
		t.Errorf("greedy eval after f32 parallel training: %+v", res)
	}
}

// TestParallelMatchesBudget verifies the learner runs the same update
// budget as the round-robin mode would at the same step count.
func TestParallelMatchesBudget(t *testing.T) {
	s, err := sla.NewMaxThroughput(2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainerConfig(300)
	cfg.Actors = 2
	cfg.Parallel = true
	cfg.StepperFactory = stepperFactory(s)
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{16, 16}
	cfg.AgentConfig.BatchSize = 8
	cfg.AgentConfig.Seed = 5
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	want := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)
	if got := tr.Learner().Agent().LearnSteps(); got != want {
		t.Errorf("learner ran %d updates, want %d", got, want)
	}
}
