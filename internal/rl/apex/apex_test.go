package apex

import (
	"testing"

	"greennfv/internal/cluster"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

func envFactory(s sla.SLA) func(int) (*env.Env, error) {
	return func(actorID int) (*env.Env, error) {
		return env.New(env.Config{
			Model:      perfmodel.Default(),
			Chain:      perfmodel.StandardChain(),
			Bounds:     perfmodel.DefaultBounds(),
			SLA:        s,
			Flows:      env.StandardWorkload(),
			LoadJitter: 0.05,
			Seed:       int64(1000 + actorID),
		})
	}
}

// stepperFactory is envFactory in the trainer's factory signature.
func stepperFactory(s sla.SLA) func(int) (env.Stepper, error) {
	f := envFactory(s)
	return func(actorID int) (env.Stepper, error) { return f(actorID) }
}

// clusterFactory builds a two-node, three-chain ClusterEnv with the DRL
// placement head active.
func clusterFactory(actorID int) (env.Stepper, error) {
	chains, hops := env.StandardClusterChains(3)
	return env.NewCluster(env.ClusterConfig{
		Topology:        cluster.Homogeneous(2),
		Chains:          chains,
		Hops:            hops,
		LatencyBudgetNs: 1e6,
		Bounds:          perfmodel.DefaultBounds(),
		SLA:             sla.NewEnergyEfficiency(),
		LoadJitter:      0.05,
		Seed:            int64(2000 + actorID),
	})
}

func smallTrainer(t *testing.T, steps int) *Trainer {
	t.Helper()
	cfg := DefaultTrainerConfig(steps)
	cfg.Actors = 2
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0) // dims filled by trainer
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 7
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrainerValidation(t *testing.T) {
	cfg := DefaultTrainerConfig(100)
	if _, err := NewTrainer(cfg); err == nil {
		t.Error("missing env factory accepted")
	}
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.Actors = 0
	if _, err := NewTrainer(cfg); err == nil {
		t.Error("zero actors accepted")
	}
	cfg.Actors = 1
	cfg.TotalSteps = 0
	if _, err := NewTrainer(cfg); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestTrainerRunsAndSnapshots(t *testing.T) {
	tr := smallTrainer(t, 400)
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	for _, s := range tr.Snapshots {
		if s.ThroughputGbps < 0 || s.EnergyJ <= 0 {
			t.Errorf("snapshot %d: tput=%v energy=%v", s.Episode, s.ThroughputGbps, s.EnergyJ)
		}
		if s.FreqGHz < 1.2 || s.FreqGHz > 2.1 {
			t.Errorf("snapshot %d: freq %v outside ladder", s.Episode, s.FreqGHz)
		}
		if s.Batch < 1 || s.Batch > 256 {
			t.Errorf("snapshot %d: batch %v outside bounds", s.Episode, s.Batch)
		}
	}
	// Learner actually received experience from both actors.
	pushes, transitions := tr.Learner().Stats()
	if pushes == 0 || transitions < 300 {
		t.Errorf("learner got %d pushes / %d transitions", pushes, transitions)
	}
	if tr.Learner().Agent().LearnSteps() == 0 {
		t.Error("learner never updated")
	}
}

func TestGreedyEval(t *testing.T) {
	tr := smallTrainer(t, 200)
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	e, err := envFactory(sla.NewEnergyEfficiency())(99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.GreedyEval(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps <= 0 || res.EnergyJoules <= 0 {
		t.Errorf("eval result %+v", res)
	}
}

func TestActorParameterSync(t *testing.T) {
	tr := smallTrainer(t, 0+64)
	// Run enough steps for at least one sync cycle.
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range tr.Actors() {
		if a.Steps() == 0 {
			t.Errorf("actor %d took no steps", a.ID)
		}
	}
}

func TestLearnerRejectsUniformAgent(t *testing.T) {
	cfg := ddpg.DefaultConfig(4, 2)
	cfg.Prioritized = false
	agent, err := ddpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLearner(agent); err == nil {
		t.Error("uniform-replay learner accepted")
	}
	if _, err := NewLearner(nil); err == nil {
		t.Error("nil agent accepted")
	}
}

func TestActorValidation(t *testing.T) {
	if _, err := NewActor(ActorConfig{}); err == nil {
		t.Error("actor without env accepted")
	}
	e, _ := envFactory(sla.NewEnergyEfficiency())(0)
	cfg := ddpg.DefaultConfig(e.StateDim(), e.ActionDim())
	if _, err := NewActor(ActorConfig{Env: e, AgentConfig: cfg, PushEvery: 0, SyncEvery: 1}); err == nil {
		t.Error("zero PushEvery accepted")
	}
}

func TestRPCTransport(t *testing.T) {
	// Central learner over TCP; one remote actor trains against it.
	agentCfg := ddpg.DefaultConfig(12, 15)
	agentCfg.Hidden = []int{16, 16}
	agentCfg.BatchSize = 8
	agent, err := ddpg.New(agentCfg)
	if err != nil {
		t.Fatal(err)
	}
	learner, err := NewLearner(agent)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := singleShot(srv.Addr(), 0)
	defer client.Close()
	if _, err := client.Register(); err != nil {
		t.Fatal(err)
	}

	e, err := envFactory(sla.NewEnergyEfficiency())(0)
	if err != nil {
		t.Fatal(err)
	}
	actorCfg := agentCfg
	actorCfg.Seed = 31
	actor, err := NewActor(ActorConfig{ID: 0, Env: e, AgentConfig: actorCfg, PushEvery: 4, SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := actor.Step(client); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		learner.LearnStep(4)
	}
	_, transitions := learner.Stats()
	if transitions < 30 {
		t.Errorf("rpc learner received only %d transitions", transitions)
	}
	// A second pull with the current version returns no payload.
	v, data, err := client.PullParams(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Errorf("version %d pull returned %d stale bytes", v, len(data))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	agent, _ := ddpg.New(ddpg.DefaultConfig(2, 2))
	learner, _ := NewLearner(agent)
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// discardLearner drops pushes without copying — the zero-alloc gate's
// non-retaining endpoint.
type discardLearner struct{}

func (discardLearner) PushExperience([]Experience) error   { return nil }
func (discardLearner) PullParams(int) (int, []byte, error) { return 1, nil, nil }
func (discardLearner) ReleaseParams([]byte)                {}
func (discardLearner) RetainsExperience() bool             { return false }

// TestActorStepAllocGate pins the zero-alloc actor step. With a
// non-retaining learner the arena recycles its chunks and the steady
// state allocates nothing at all; the in-process learner retains
// pushed slices, leaving exactly one chunk handoff per PushEvery
// window — still well under one allocation per step.
func TestActorStepAllocGate(t *testing.T) {
	build := func(t *testing.T) *Actor {
		e, err := envFactory(sla.NewEnergyEfficiency())(0)
		if err != nil {
			t.Fatal(err)
		}
		acfg := ddpg.DefaultConfig(e.StateDim(), e.ActionDim())
		acfg.Seed = 23
		actor, err := NewActor(ActorConfig{
			ID: 0, Env: e, AgentConfig: acfg, PushEvery: 8, SyncEvery: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		return actor
	}

	t.Run("non-retaining", func(t *testing.T) {
		actor := build(t)
		learner := discardLearner{}
		for i := 0; i < 64; i++ { // warm arena free list and scratch
			if _, _, err := actor.Step(learner); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			if _, _, err := actor.Step(learner); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("Step allocates %.3f per step with a non-retaining learner, want 0", avg)
		}
	})

	t.Run("retaining", func(t *testing.T) {
		actor := build(t)
		agent, err := ddpg.New(ddpg.DefaultConfig(actor.env.StateDim(), actor.env.ActionDim()))
		if err != nil {
			t.Fatal(err)
		}
		learner, err := NewLearner(agent)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, _, err := actor.Step(learner); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			if _, _, err := actor.Step(learner); err != nil {
				t.Fatal(err)
			}
		}); avg >= 1 {
			t.Errorf("Step allocates %.3f per step with the in-process learner, want < 1 (one chunk per %d-step window)",
				avg, actor.pushEvery)
		}
	})
}
