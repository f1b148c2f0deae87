package env

import (
	"greennfv/internal/perfmodel"
	"greennfv/internal/sla"
)

// Stepper is the environment surface the Ape-X actors, the DRL
// controller and the greedy evaluation loop step through, so the
// training stack is topology-agnostic. ClusterEnv implements it; Env
// satisfies it through the ClusterEnv it embeds. The perfmodel.Result
// returned by Step/StepInto is the cluster roll-up (see
// ClusterEnv.StepInto) — for Env, the chain's full single-node
// measurement; either way its PerNF/scratch aliases environment state
// and is only valid until the next step.
type Stepper interface {
	// StateDim and ActionDim report the observation and action vector
	// lengths; ddpg checkpoints stay self-describing because the
	// trainer probes these at construction.
	StateDim() int
	ActionDim() int
	// NumNFs is the total network-function count across all chains.
	NumNFs() int
	// Reset reseeds the load process and returns the initial
	// observation; ResetInto is its zero-alloc counterpart.
	Reset(seed int64) []float64
	ResetInto(seed int64, obs []float64) []float64
	// Step applies an action in [-1,1]^ActionDim; StepInto is the
	// zero-alloc counterpart the actors drive.
	Step(action []float64) ([]float64, float64, perfmodel.Result, error)
	StepInto(action, obs []float64) (float64, perfmodel.Result, error)
	// Knobs returns a copy of the current knob settings, flattened
	// chain-major for multi-chain environments.
	Knobs() []perfmodel.NFKnobs
	// SLA returns the agreement rewards are computed against.
	SLA() sla.SLA
}

var (
	_ Stepper = (*Env)(nil)
	_ Stepper = (*ClusterEnv)(nil)
)
