package apex

import (
	"encoding/json"
	"fmt"
	"io"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// This file defines the JSON contract between a trainer and its
// remote actor processes: everything an actor needs to rebuild the
// training environment and its local network copy from scratch in a
// fresh OS process. Closures (StepperFactory) cannot cross a process
// boundary, so the remote mode ships this spec instead; the trainer
// normalizes it (normalizeSpec, remote.go) so the actor's agent
// hyperparameters — network shape above all — always match the
// learner's. The same spec is the node spec of the serving plane
// (greennfv -write-spec) and the node greennfv.System is built on;
// EnvConfig is the one mapping from it to an env.Config.

// ActorSpec describes a remote actor's environment and agent so a
// separate process (cmd/apexactor) can reconstruct both. It is the
// unit the trainer writes, as JSON, to each spawned actor's stdin.
//
// Actor rank r steps an environment seeded EnvSeed+131r, and its local
// network sits on rung r of the exploration ladder (ladderRung) — the
// function the in-process trainer builds its actors with.
type ActorSpec struct {
	// Chain selects the calibrated service chain: "standard"
	// (default), "heavy", or "light".
	Chain string `json:"chain,omitempty"`
	// Flows is the offered workload; empty selects the paper's
	// five-flow evaluation mix. The environment reads it only at
	// construction, so environments built from one spec share it.
	Flows []env.FlowLoad `json:"flows,omitempty"`
	// LoadJitter is the per-interval relative load noise.
	LoadJitter float64 `json:"load_jitter"`
	// SLA is the reward model (sla.SLA is a plain struct and
	// round-trips through JSON; Kind marshals as its integer value).
	SLA sla.SLA `json:"sla"`
	// EnvSeed is the base environment seed (rank r adds 131r).
	EnvSeed int64 `json:"env_seed"`

	// Agent is the full agent hyperparameter template — the same
	// ddpg.Config the learner runs, so remote actors compute TD
	// priorities and exploration exactly like in-process actors
	// would. The trainer copies its learner's configuration here when
	// spawning (hidden sizes MUST match or parameter loads fail); a
	// zero value (no hidden layers) selects ddpg defaults. State and
	// action dims are filled from the environment, and Seed/OUSigma
	// are overridden per rank (Seed+101r, the BaseSigma ladder).
	Agent ddpg.Config `json:"agent"`
	// BaseSigma is rank 0's OU exploration noise; later ranks explore
	// harder (sigma multiplied by 1+r/2). Zero means greedy actors —
	// the same semantics as TrainerConfig.BaseSigma.
	BaseSigma float64 `json:"base_sigma"`

	// PushEvery is the experience-flush interval in steps.
	PushEvery int `json:"push_every"`
	// SyncEvery is the parameter-pull interval in steps.
	SyncEvery int `json:"sync_every"`
	// Steps is this actor's environment-step budget; 0 means run
	// until the learner signals drain.
	Steps int `json:"steps,omitempty"`
}

// chains maps every chain name a spec may carry to its calibrated
// preset — the one place a name becomes a chain. The empty name is the
// standard chain.
var chains = map[string]func() perfmodel.ChainSpec{
	"":         perfmodel.StandardChain,
	"standard": perfmodel.StandardChain,
	"heavy":    perfmodel.HeavyChain,
	"light":    perfmodel.LightChain,
}

// Validate checks the environment half of the spec — the chain name,
// the flows, the load jitter and the exploration noise — without
// building an environment. The exchange cadence is not its business: a
// serving node reads a spec that has none, the trainer fills it in
// (normalizeSpec) and NewActor refuses a spec without it.
func (s *ActorSpec) Validate() error {
	if chains[s.Chain] == nil {
		return fmt.Errorf("apex: unknown chain %q (want standard, heavy or light)", s.Chain)
	}
	if len(s.Flows) > 0 {
		if _, err := env.Aggregate(s.Flows); err != nil {
			return err
		}
	}
	if !(s.LoadJitter >= 0 && s.LoadJitter < 1) { // also rejects NaN
		return fmt.Errorf("apex: load jitter %v outside [0,1)", s.LoadJitter)
	}
	if s.BaseSigma < 0 {
		return fmt.Errorf("apex: negative BaseSigma %v", s.BaseSigma)
	}
	return nil
}

// EnvConfig is the one mapping from a spec to the single-host
// environment it describes: the calibrated platform model and knob
// bounds, the named chain, the flows (empty: the paper's five-flow
// mix), the load jitter and the SLA, seeded with seed. Callers set the
// rest (FrozenKnobs, Options) on the result. The spec must be valid.
func (s *ActorSpec) EnvConfig(seed int64) env.Config {
	flows := s.Flows
	if len(flows) == 0 {
		flows = env.StandardWorkload()
	}
	return env.Config{
		Model:      perfmodel.Default(),
		Chain:      chains[s.Chain](),
		Bounds:     perfmodel.DefaultBounds(),
		SLA:        s.SLA,
		Flows:      flows,
		LoadJitter: s.LoadJitter,
		Seed:       seed,
	}
}

// BuildEnv constructs the environment for one actor rank.
func (s *ActorSpec) BuildEnv(rank int) (*env.Env, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return env.New(s.EnvConfig(s.EnvSeed + int64(rank)*131))
}

// agentConfig builds the rank's local-network configuration from the
// spec's agent template.
func (s *ActorSpec) agentConfig(stateDim, actionDim, rank int) ddpg.Config {
	cfg := s.Agent
	if len(cfg.Hidden) == 0 {
		cfg = ddpg.DefaultConfig(0, 0)
	}
	cfg.StateDim, cfg.ActionDim = stateDim, actionDim
	return ladderRung(cfg, s.BaseSigma, rank)
}

// DecodeActorSpec reads one JSON-encoded spec and checks its
// environment half (Validate).
func DecodeActorSpec(r io.Reader) (ActorSpec, error) {
	var s ActorSpec
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return ActorSpec{}, fmt.Errorf("apex: decode actor spec: %w", err)
	}
	return s, s.Validate()
}

// Encode writes the spec as one line of JSON.
func (s *ActorSpec) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}
