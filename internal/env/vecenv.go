package env

import (
	"errors"
	"fmt"

	"greennfv/internal/perfmodel"
)

// VecEnv steps N independent environments as one batched call: Step
// takes a row-major action matrix (the shape batch policy rollouts
// produce) and steps the environments in index order on the calling
// goroutine — one step is ~1 µs, less than handing it to a worker.
// Every environment keeps its own RNG, knobs and scratch, so the
// results are those of stepping the environments one by one.
//
// A VecEnv owns its observation/reward/result buffers and reuses
// them across calls: Step performs no allocations in steady state.
// The VecEnv itself is not goroutine-safe; one caller drives it.
type VecEnv struct {
	envs []*Env

	obs     []float64 // N × StateDim, row-major
	rewards []float64
	infos   []perfmodel.Result

	// StepBatch double-buffers observations (prev holds the states the
	// actions were computed from) and owns the action matrix it hands
	// the policy, so a fused act→step cycle allocates nothing after the
	// first call.
	prev    []float64
	actions []float64
}

// NewVecEnv wraps the given environments, which must share state and
// action dimensionality.
func NewVecEnv(envs []*Env) (*VecEnv, error) {
	if len(envs) == 0 {
		return nil, errors.New("env: VecEnv needs at least one environment")
	}
	sd, ad := envs[0].StateDim(), envs[0].ActionDim()
	for i, e := range envs {
		if e == nil {
			return nil, fmt.Errorf("env: VecEnv environment %d is nil", i)
		}
		if e.StateDim() != sd || e.ActionDim() != ad {
			return nil, fmt.Errorf("env: VecEnv environment %d has dims (%d,%d), want (%d,%d)",
				i, e.StateDim(), e.ActionDim(), sd, ad)
		}
	}
	return &VecEnv{
		envs:    envs,
		obs:     make([]float64, len(envs)*sd),
		rewards: make([]float64, len(envs)),
		infos:   make([]perfmodel.Result, len(envs)),
	}, nil
}

// Len reports the number of wrapped environments.
func (v *VecEnv) Len() int { return len(v.envs) }

// StateDim reports the per-environment observation length.
func (v *VecEnv) StateDim() int { return v.envs[0].StateDim() }

// ActionDim reports the per-environment action length.
func (v *VecEnv) ActionDim() int { return v.envs[0].ActionDim() }

// Env exposes environment i (for reading knobs or measurements).
func (v *VecEnv) Env(i int) *Env { return v.envs[i] }

// Reset reseeds every environment with seedBase + 131·i (the per-actor
// seed spacing used throughout the repo) and returns the batched
// initial observation ([N × StateDim], owned by the VecEnv).
func (v *VecEnv) Reset(seedBase int64) []float64 {
	sd := v.StateDim()
	for i, e := range v.envs {
		e.ResetInto(seedBase+int64(i)*131, v.obs[i*sd:(i+1)*sd])
	}
	return v.obs
}

// Step applies the row-major action matrix ([N × ActionDim]) and steps
// every environment. The returned observation matrix ([N × StateDim]),
// rewards and results are owned by the VecEnv and valid until the
// next call; each Result's PerNF aliases its environment's scratch.
// The first failure stops the batch and is returned.
func (v *VecEnv) Step(actions []float64) (obs []float64, rewards []float64, infos []perfmodel.Result, err error) {
	sd, ad := v.StateDim(), v.ActionDim()
	if len(actions) != len(v.envs)*ad {
		return nil, nil, nil, fmt.Errorf("env: VecEnv action matrix len %d, want %d", len(actions), len(v.envs)*ad)
	}
	for i, e := range v.envs {
		r, info, err := e.StepInto(actions[i*ad:(i+1)*ad], v.obs[i*sd:(i+1)*sd])
		if err != nil {
			return nil, nil, nil, fmt.Errorf("env: VecEnv environment %d: %w", i, err)
		}
		v.rewards[i] = r
		v.infos[i] = info
	}
	return v.obs, v.rewards, v.infos, nil
}

// Obs returns the current observation matrix ([N × StateDim], owned
// by the VecEnv): the rows written by the last Reset/Step/StepBatch.
func (v *VecEnv) Obs() []float64 { return v.obs }

// StepBatch runs one fused act→step cycle: act is called with the
// current observation matrix ([n × StateDim]) and must fill the
// VecEnv-owned action matrix ([n × ActionDim]); every environment is
// then stepped. It returns the states the actions were computed from
// (prev), the actions, and the usual Step outputs. All returned
// slices are owned by the VecEnv: prev and actions stay valid until
// the next StepBatch, obs/rewards/infos until the next Step or
// StepBatch. No allocations after the first call.
func (v *VecEnv) StepBatch(act func(states []float64, n int, actions []float64) error) (prev, actions, obs, rewards []float64, infos []perfmodel.Result, err error) {
	n := len(v.envs)
	if v.prev == nil {
		v.prev = make([]float64, len(v.obs))
	}
	if v.actions == nil {
		v.actions = make([]float64, n*v.ActionDim())
	}
	// The current observations become the acting states; Step then
	// writes the successor observations into the other buffer.
	v.obs, v.prev = v.prev, v.obs
	if err := act(v.prev, n, v.actions); err != nil {
		v.obs, v.prev = v.prev, v.obs // keep Obs pointing at valid rows
		return nil, nil, nil, nil, nil, err
	}
	if _, _, _, err := v.Step(v.actions); err != nil {
		v.obs, v.prev = v.prev, v.obs
		return nil, nil, nil, nil, nil, err
	}
	return v.prev, v.actions, v.obs, v.rewards, v.infos, nil
}
