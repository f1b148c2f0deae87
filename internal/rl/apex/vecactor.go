package apex

import (
	"fmt"
	"math/rand"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
)

// VecActor drives every in-process parallel actor through ONE batched
// policy pass per environment step: a single driver steps a VecEnv,
// with ddpg.ActBatch computing all N actions in one network pass and
// ddpg.TDErrorBatch settling a whole flush window's priorities in
// three.
//
// The Ape-X exploration ladder survives batching: each lane keeps its
// own OU noise process (rung sigma, private RNG), only the policy
// network is shared — what the paper's actors do between broadcasts
// anyway, every lane acting on the same pulled parameters. Valid only
// in the non-deterministic Parallel mode: round-robin actors keep their
// private agents, whose RNG streams the recorded figures depend on.
//
// Steady state allocates nothing: transitions land in the same staging
// window Actor uses (one flush window is PushEvery rounds of every
// lane), the VecEnv owns the state/action matrices, and the batch
// scratch inside the agent grows once and sticks.
type VecActor struct {
	staging // agent: the shared policy + priority networks
	vec     *env.VecEnv
	noises  []*ddpg.OUNoise // per-lane exploration ladder
	n       int
	actFn   func(states []float64, n int, actions []float64) error

	rounds int // == per-lane steps, what the push/pull cadences count
	steps  int // total environment steps across lanes
}

// newVecActor assembles the batched driver: one shared acting agent,
// the wrapped environments, and one OU process per lane. pushEvery and
// syncEvery are per-lane step cadences as in ActorConfig, which a round
// (one step of every lane) makes round cadences here.
func newVecActor(agent *ddpg.Agent, vec *env.VecEnv, noises []*ddpg.OUNoise, pushEvery, syncEvery int) *VecActor {
	n := vec.Len()
	v := &VecActor{
		staging: newStaging(0, agent, vec.StateDim(), vec.ActionDim(), pushEvery*n, pushEvery, syncEvery),
		vec:     vec,
		noises:  noises,
		n:       n,
	}
	// Preallocated closure: StepBatch's act hook must not capture per
	// round or every step pays an allocation.
	v.actFn = func(states []float64, n int, actions []float64) error {
		return v.agent.ActBatch(states, n, v.noises, actions)
	}
	return v
}

// noiseLadder builds the per-lane OU processes from the same config
// ladder NewTrainer gives round-robin actors: configs[i].OUSigma is
// lane i's rung and configs[i].Seed its private RNG stream.
func noiseLadder(actionDim int, configs []ddpg.Config) []*ddpg.OUNoise {
	noises := make([]*ddpg.OUNoise, len(configs))
	for i, c := range configs {
		rng := rand.New(rand.NewSource(c.Seed))
		noises[i] = ddpg.NewOUNoise(actionDim, c.OUTheta, c.OUSigma, rng)
	}
	return noises
}

// StepRound advances every lane one step through one batched
// act→step→record cycle and runs the push/sync cadences. It returns
// lane 0's reward and measurement (what the trainer snapshots).
func (v *VecActor) StepRound(learner LearnerAPI) (float64, perfmodel.Result, error) {
	prev, actions, obs, rewards, infos, err := v.vec.StepBatch(v.actFn)
	if err != nil {
		return 0, perfmodel.Result{}, err
	}
	sd, ad := v.vec.StateDim(), v.vec.ActionDim()
	for i := 0; i < v.n; i++ {
		stateRow, actionRow, nextRow := v.arena.next()
		copy(stateRow, prev[i*sd:(i+1)*sd])
		copy(actionRow, actions[i*ad:(i+1)*ad])
		copy(nextRow, obs[i*sd:(i+1)*sd])
		v.stage(stateRow, actionRow, nextRow, rewards[i])
	}
	v.rounds++
	v.steps += v.n
	return rewards[0], infos[0], v.exchange(learner, v.rounds)
}

// StepRemainder spends a tail smaller than one full round: one batched
// act over the first k lanes, then scalar env steps. It runs at most
// once per training run, so its action scratch allocation is irrelevant.
func (v *VecActor) StepRemainder(learner LearnerAPI, k int) error {
	if k <= 0 {
		return nil
	}
	sd, ad := v.vec.StateDim(), v.vec.ActionDim()
	states := v.vec.Obs()
	acts := make([]float64, k*ad)
	if err := v.agent.ActBatch(states, k, v.noises[:k], acts); err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		stateRow, actionRow, nextRow := v.arena.next()
		copy(stateRow, states[i*sd:(i+1)*sd])
		copy(actionRow, acts[i*ad:(i+1)*ad])
		reward, _, err := v.vec.Env(i).StepInto(actionRow, nextRow)
		if err != nil {
			return fmt.Errorf("apex: lane %d: %w", i, err)
		}
		copy(states[i*sd:(i+1)*sd], nextRow) // keep vec.Obs coherent
		v.stage(stateRow, actionRow, nextRow, reward)
	}
	v.steps += k
	return nil
}

// Steps reports total environment steps taken across all lanes.
func (v *VecActor) Steps() int { return v.steps }
