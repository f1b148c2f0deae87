package apex

import (
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/env"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// captureLearner is a LearnerAPI double that deep-copies every pushed
// batch (so arena recycling cannot corrupt the record) and never ships
// parameters, keeping the acting networks frozen for parity checks.
type captureLearner struct {
	pushed []Experience
	retain bool
}

func (c *captureLearner) PushExperience(batch []Experience) error {
	for _, e := range batch {
		e.State = append([]float64(nil), e.State...)
		e.Action = append([]float64(nil), e.Action...)
		e.NextState = append([]float64(nil), e.NextState...)
		c.pushed = append(c.pushed, e)
	}
	return nil
}

func (c *captureLearner) PullParams(haveVersion int) (int, []byte, error) { return 1, nil, nil }
func (c *captureLearner) RetainsExperience() bool                         { return c.retain }

// discardLearner drops pushes without copying — the zero-alloc gate's
// non-retaining endpoint.
type discardLearner struct{}

func (discardLearner) PushExperience([]Experience) error   { return nil }
func (discardLearner) PullParams(int) (int, []byte, error) { return 1, nil, nil }
func (discardLearner) RetainsExperience() bool             { return false }

// TestVecActorMatchesScalarStepping is the batched-acting parity
// gate: a VecActor round (ActBatch over a VecEnv) must produce
// bit-identical transitions AND priorities to per-actor scalar
// stepping — same forwards, same per-lane noise draws, same
// environment trajectories — at any actor count. Meaningful under
// -race (the VecEnv steps lanes across the worker pool).
func TestVecActorMatchesScalarStepping(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		agentCfg := ddpg.DefaultConfig(0, 0)
		agentCfg.Hidden = []int{16, 16}
		agentCfg.Seed = 29
		factory := envFactory(sla.NewEnergyEfficiency())

		// Batched side: shared agent, VecEnv over n fresh environments,
		// per-lane noise ladder.
		envs := make([]*env.Env, n)
		ladder := make([]ddpg.Config, n)
		for i := range envs {
			e, err := factory(i)
			if err != nil {
				t.Fatal(err)
			}
			envs[i] = e
			c := agentCfg
			c.StateDim, c.ActionDim = e.StateDim(), e.ActionDim()
			c.Seed = agentCfg.Seed + int64(i)*101
			c.OUSigma = 0.3 * (1 + 0.5*float64(i))
			ladder[i] = c
		}
		vec, err := env.NewVecEnv(envs)
		if err != nil {
			t.Fatal(err)
		}
		const seedBase = 77
		vec.Reset(seedBase)
		shared, err := ddpg.New(ladder[0])
		if err != nil {
			t.Fatal(err)
		}
		const pushEvery = 4
		va := newVecActor(shared, vec, noiseLadder(vec.ActionDim(), ladder), pushEvery, 8)
		cap := &captureLearner{}
		const rounds = 12
		for r := 0; r < rounds; r++ {
			if _, _, err := va.StepRound(cap); err != nil {
				t.Fatal(err)
			}
		}
		if va.Steps() != rounds*n {
			t.Fatalf("n=%d: VecActor took %d steps, want %d", n, va.Steps(), rounds*n)
		}

		// Scalar reference: same weights, same noise streams, same env
		// seeds, stepped one lane at a time.
		ref, err := ddpg.New(ladder[0])
		if err != nil {
			t.Fatal(err)
		}
		refNoises := make([]*ddpg.OUNoise, n)
		refEnvs := make([]*env.Env, n)
		states := make([][]float64, n)
		for i := range refNoises {
			refNoises[i] = ddpg.NewOUNoise(vec.ActionDim(), ladder[i].OUTheta, ladder[i].OUSigma,
				rand.New(rand.NewSource(ladder[i].Seed)))
			e, err := factory(i)
			if err != nil {
				t.Fatal(err)
			}
			refEnvs[i] = e
			states[i] = append([]float64(nil), e.Reset(seedBase+int64(i)*131)...)
		}
		want := make([]Experience, 0, rounds*n)
		for r := 0; r < rounds; r++ {
			for i := 0; i < n; i++ {
				action := append([]float64(nil), ref.Actor.Forward(states[i])...)
				noise := refNoises[i].Sample()
				for j := range action {
					action[j] += noise[j]
					if action[j] < -1 {
						action[j] = -1
					}
					if action[j] > 1 {
						action[j] = 1
					}
				}
				next := make([]float64, vec.StateDim())
				reward, _, err := refEnvs[i].StepInto(action, next)
				if err != nil {
					t.Fatal(err)
				}
				tr := replay.Transition{State: states[i], Action: action, Reward: reward, NextState: next}
				want = append(want, Experience{
					State: states[i], Action: action, Reward: reward, NextState: next,
					Priority: math.Abs(ref.TDError(tr)),
				})
				states[i] = next
			}
		}

		if len(cap.pushed) != len(want) {
			t.Fatalf("n=%d: pushed %d transitions, want %d", n, len(cap.pushed), len(want))
		}
		for k, got := range cap.pushed {
			w := want[k]
			if got.Reward != w.Reward || got.Priority != w.Priority {
				t.Fatalf("n=%d transition %d: reward/priority %v/%v, want %v/%v (not bit-identical)",
					n, k, got.Reward, got.Priority, w.Reward, w.Priority)
			}
			for j := range w.State {
				if got.State[j] != w.State[j] || got.NextState[j] != w.NextState[j] {
					t.Fatalf("n=%d transition %d: state mismatch at %d", n, k, j)
				}
			}
			for j := range w.Action {
				if got.Action[j] != w.Action[j] {
					t.Fatalf("n=%d transition %d: action[%d] = %v, want %v", n, k, j, got.Action[j], w.Action[j])
				}
			}
		}
	}
}

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

// TestSamplesPerInsertPacesLearner pins the adaptive pacing knob under
// actor starvation: with SamplesPerInsert=1 the learner may consume at
// most one replay sample per inserted transition, so a 2-updates-per-
// step budget (4352 samples' worth) collapses to at most
// TotalSteps/BatchSize updates — the learner blocked for experience
// instead of replaying the stale buffer.
func TestSamplesPerInsertPacesLearner(t *testing.T) {
	cfg := DefaultTrainerConfig(200)
	cfg.Actors = 2
	cfg.Parallel = true
	cfg.LearnPerStep = 2
	cfg.SamplesPerInsert = 1
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{12}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 19
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	got := tr.Learner().Agent().LearnSteps()
	maxUpdates := int(cfg.SamplesPerInsert * float64(cfg.TotalSteps) / float64(cfg.AgentConfig.BatchSize))
	budget := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)
	if maxUpdates >= budget {
		t.Fatalf("test misconfigured: ratio cap %d does not bind budget %d", maxUpdates, budget)
	}
	if got == 0 {
		t.Fatal("paced learner never updated")
	}
	if got > maxUpdates {
		t.Errorf("learner ran %d updates, SamplesPerInsert=%v allows at most %d",
			got, cfg.SamplesPerInsert, maxUpdates)
	}
}
