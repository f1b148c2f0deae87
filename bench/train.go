package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"

	"greennfv"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

const trainActors = 4

// nodeEnv builds the single-node environment greennfv.System trains
// on: standard chain, default model and bounds, Efficiency SLA.
func nodeEnv(seed int64, flows []env.FlowLoad) (*env.Env, error) {
	return env.New(env.Config{
		Model:      perfmodel.Default(),
		Chain:      perfmodel.StandardChain(),
		Bounds:     perfmodel.DefaultBounds(),
		SLA:        sla.NewEnergyEfficiency(),
		Flows:      flows,
		LoadJitter: greennfv.DefaultConfig().LoadJitter,
		Seed:       seed,
	})
}

// newRRTrainer wires a round-robin Ape-X trainer exactly as
// control.GreenNFV.Prepare does for greennfv.System.Train: default
// trainer config, four actors on environments seeded seed+131·rank,
// default agent config seeded with seed.
func newRRTrainer(seed int64, steps int) (*apex.Trainer, apex.TrainerConfig, error) {
	cfg := apex.DefaultTrainerConfig(steps)
	cfg.Actors = trainActors
	cfg.StepperFactory = func(actorID int) (env.Stepper, error) {
		return nodeEnv(seed+int64(actorID)*131, env.StandardWorkload())
	}
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = seed
	t, err := apex.NewTrainer(cfg)
	return t, cfg, err
}

// trainRep is one rep of train_rr: greennfv.System.Train for a fixed
// number of steps, then System.Measure on the policy it trained.
type trainRep struct {
	sz     sizes
	sys    *greennfv.System
	policy *greennfv.Policy
	m      greennfv.Measurement
}

// buildTrainRep is train_rr's set-up: the System, and one trainer of
// the kind Train builds for itself inside the timed section,
// constructed and dropped so that its cost also shows in setup_s.
func buildTrainRep(seed int64, sz sizes) (*trainRep, error) {
	cfg := greennfv.DefaultConfig()
	cfg.Seed = seed
	sys, err := greennfv.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := newRRTrainer(seed, sz.trainSteps); err != nil {
		return nil, err
	}
	return &trainRep{sz: sz, sys: sys}, nil
}

func (t *trainRep) train(steps int) (*greennfv.Policy, error) {
	return t.sys.Train(greennfv.EfficiencySLA(), greennfv.TrainOptions{Steps: steps, Actors: trainActors})
}

// warm trains a short throwaway policy.
func (t *trainRep) warm() error {
	_, err := t.train(t.sz.trainWarm)
	return err
}

func (t *trainRep) run() (int, error) {
	policy, err := t.train(t.sz.trainSteps)
	if err != nil {
		return t.sz.trainSteps, err
	}
	t.policy = policy
	if t.m, err = t.sys.Measure(policy); err != nil {
		return t.sz.trainSteps, err
	}
	return 0, nil
}

func positive(vs ...float64) bool {
	for _, v := range vs {
		if !(v > 0) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func (t *trainRep) outputs() (outputs, error) {
	if !positive(t.m.ThroughputGbps, t.m.EnergyJ, t.m.EfficiencyGbpsPerKJ) {
		return outputs{}, fmt.Errorf("measurement not finite and positive: %+v", t.m)
	}
	if !t.m.SLASatisfied {
		return outputs{}, fmt.Errorf("Efficiency SLA violated: %+v", t.m)
	}
	var actor bytes.Buffer
	if err := t.policy.Save(&actor); err != nil {
		return outputs{}, err
	}
	episodes, _, _, _ := t.policy.TrainingCurve()
	return outputs{
		efficiency: t.m.EfficiencyGbpsPerKJ,
		counts: []count{
			{"train.throughput_gbps", t.m.ThroughputGbps},
			{"train.energy_j", t.m.EnergyJ},
			{"train.policy_crc32", float64(crc32.ChecksumIEEE(actor.Bytes()))},
			{"train.policy_bytes", float64(actor.Len())},
			{"train.curve_points", float64(len(episodes))},
		},
	}, nil
}

func (t *trainRep) close() error { return nil }

func trainRR(seed int64, sz sizes) *workload {
	return &workload{
		name:     "train_rr",
		why:      "one training update (env step, act, replay, learn, broadcast) of deterministic round-robin Ape-X in the configuration every figure uses; ddpg and nn do most of the work",
		ops:      sz.trainSteps,
		opName:   "environment step of System.Train",
		reps:     2 * sz.variants,
		variants: sz.variants,
		build: func(v int) (instance, error) {
			return buildTrainRep(deriveSeed(seed, v), sz)
		},
	}
}
