package apex

import (
	"math"
	"reflect"
	"testing"

	"greennfv/internal/env"
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

// steppingConfig is the run the two stepping tests share: four actors on
// the default cadences.
func steppingConfig(steps int, parallel bool) TrainerConfig {
	cfg := DefaultTrainerConfig(steps)
	cfg.Parallel = parallel
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{16, 16}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 29
	return cfg
}

// TestParallelSnapshotsOnRoundRobinGrid: the driver stamps snapshots on
// the grid round-robin uses — every multiple of steps/40, nothing
// else — so the "episode" column of a training curve does not depend on
// the training mode.
func TestParallelSnapshotsOnRoundRobinGrid(t *testing.T) {
	cfg := steppingConfig(600, true)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	every := max(cfg.TotalSteps/40, 1)
	if got, want := len(tr.Snapshots), cfg.TotalSteps/every; got != want {
		t.Fatalf("%d snapshots, want %d", got, want)
	}
	for i, s := range tr.Snapshots {
		if want := (i + 1) * every; s.Episode != want {
			t.Errorf("snapshot %d stamped episode %d, want %d", i, s.Episode, want)
		}
	}
}

// TestParallelDriverMatchesRoundRobinStepping is the parity gate of the
// one stepping loop. With LearnPerStep 0 the learner never publishes a
// version, so acting is the whole run and both modes must take it
// identically: the same snapshots bit for bit, the same per-actor step
// counts. 603 steps over four actors leave a remainder round and, at
// PushEvery 8, a tail in every actor — which the driver flushes, so the
// Parallel learner holds every transition.
func TestParallelDriverMatchesRoundRobinStepping(t *testing.T) {
	const steps = 603
	run := func(parallel bool) *Trainer {
		cfg := steppingConfig(steps, parallel)
		cfg.LearnPerStep = 0
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	rr, par := run(false), run(true)
	if len(rr.Snapshots) != 40 {
		t.Fatalf("round-robin recorded %d snapshots, want 40", len(rr.Snapshots))
	}
	if !reflect.DeepEqual(rr.Snapshots, par.Snapshots) {
		t.Errorf("snapshots differ between the modes:\nround-robin %+v\nparallel    %+v", rr.Snapshots, par.Snapshots)
	}
	for i, a := range rr.Actors() {
		if got := par.Actors()[i].Steps(); got != a.Steps() {
			t.Errorf("actor %d took %d steps in Parallel, %d in round-robin", i, got, a.Steps())
		}
	}
	if _, received := par.Learner().Stats(); received != steps {
		t.Errorf("Parallel learner received %d transitions, want all %d (tails flushed)", received, steps)
	}
	if got := par.Learner().Agent().LearnSteps(); got != 0 {
		t.Errorf("LearnPerStep 0 ran %d updates", got)
	}
}

// TestParallelTrainsClusterEnv: the in-process driver steps any
// env.Stepper, so a multi-node ClusterEnv trains through the concurrent
// pipeline and spends its full update budget.
func TestParallelTrainsClusterEnv(t *testing.T) {
	cfg := DefaultTrainerConfig(240)
	cfg.Actors = 2
	cfg.Parallel = true
	cfg.StepperFactory = clusterFactory
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
	if _, ok := tr.Actors()[0].Env().(*env.ClusterEnv); !ok {
		t.Fatalf("actor 0 steps a %T, want *env.ClusterEnv", tr.Actors()[0].Env())
	}
	want := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)
	if got := tr.Learner().Agent().LearnSteps(); got != want {
		t.Errorf("learner ran %d updates over cluster environments, want %d", got, want)
	}
	if _, received := tr.Learner().Stats(); received != cfg.TotalSteps {
		t.Errorf("learner received %d transitions, want %d", received, cfg.TotalSteps)
	}
}
