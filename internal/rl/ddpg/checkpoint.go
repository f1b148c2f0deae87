package ddpg

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// Full-agent checkpoint/restore. A DDPG agent's training state is more
// than its four networks: the Adam moment estimates (both precisions),
// the OU exploration-noise vector and annealed sigma, the RNG stream
// position, the learn-step counter and (optionally) the replay buffer
// all feed the next update. SaveState captures every piece so that a
// restored agent's next Learn is bit-identical to the update an
// uninterrupted run would have made — the property the checkpoint
// round-trip test pins and the crash-recovery story of the remote
// trainer depends on.
//
// Float32 interplay: saving while SetFloat32 is active first flushes
// the trained mirrors into the f64 weights (like ActorBytes), so the
// blob always carries the current policy in double precision; the f32
// Adam moments ride along. Restoring onto an agent with the f32 path
// active refreshes its mirrors from the restored f64 weights.

// agentState is the gob-serializable form of an Agent.
type agentState struct {
	Cfg Config
	// The four networks, each an nn parameter frame.
	Actor, Critic, ActorTarget, CriticTarget []byte
	// Optimizer moments (f64 and, when the f32 path ran, f32).
	ActorOpt, CriticOpt nn.AdamState
	// Exploration state.
	NoiseState []float64
	NoiseSigma float64
	// RNGDraws is the agent RNG's stream position (draw count since
	// seeding) — replay sampling and OU noise share this stream.
	RNGDraws   uint64
	LearnSteps int
	// ShardedReplay is the replay snapshot, nil when the caller skipped
	// replay. Replay is only read: the snapshot of the single-tree
	// buffer that checkpoints from before the buffer was striped carry,
	// restored as the one-shard snapshot it equals.
	Replay        *replay.PrioritizedState
	ShardedReplay *replay.ShardedState
}

// SaveState serializes the agent's complete training state to w.
// includeReplay additionally snapshots the replay buffer contents
// (required for next-update parity after restore; skippable when only
// the policy and optimizer state matter).
func (a *Agent) SaveState(w io.Writer, includeReplay bool) error {
	if a.f32 {
		// Make the f64 weights current; the mirrors stay authoritative.
		a.Actor.FlushF32()
		a.Critic.FlushF32()
		a.actorTarget.FlushF32()
		a.criticTarget.FlushF32()
	}
	st := agentState{
		Cfg:          a.cfg,
		Actor:        a.Actor.ParamFrame(),
		Critic:       a.Critic.ParamFrame(),
		ActorTarget:  a.actorTarget.ParamFrame(),
		CriticTarget: a.criticTarget.ParamFrame(),
		ActorOpt:     a.actorOpt.State(),
		CriticOpt:    a.criticOpt.State(),
		NoiseState:   a.noise.State(),
		NoiseSigma:   a.noise.Sigma(),
		RNGDraws:     a.rngSrc.draws,
		LearnSteps:   a.learnSteps,
	}
	if includeReplay {
		if a.prioritized == nil {
			return errors.New("ddpg: replay snapshot requires a prioritized agent")
		}
		snap := a.prioritized.State()
		st.ShardedReplay = &snap
	}
	return gob.NewEncoder(w).Encode(&st)
}

// StateBytes is SaveState into a fresh byte slice.
func (a *Agent) StateBytes(includeReplay bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := a.SaveState(&buf, includeReplay); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// errGobNetworks refuses a training state written before its networks
// were parameter frames. Nothing converts one: the run starts again,
// while the policy section of a serving checkpoint that old still
// serves.
var errGobNetworks = errors.New("ddpg: the training state stores its networks as gob blobs, the encoding before nn parameter frames, which is no longer read: retrain (a serving checkpoint's policy section still serves)")

// loadNetwork replaces dst's parameters from a checkpoint's frame.
func loadNetwork(dst *nn.Network, frame []byte, name string) error {
	if err := dst.LoadParams(frame); err != nil {
		if errors.Is(err, nn.ErrNotParamFrame) {
			return errGobNetworks
		}
		return fmt.Errorf("ddpg: restore %s: %w", name, err)
	}
	return nil
}

// LoadState restores a SaveState checkpoint into this agent, which
// must have been built with the identical Config (the construction
// seed included — the restored RNG stream is replayed from it) and,
// when the checkpoint carries a replay snapshot, still have an empty
// buffer, which the restore replaces with one of the snapshot's stripe
// count.
// After a successful restore the agent's weights, optimizer moments,
// noise, RNG position and learn counter are bit-identical to the
// saved agent's.
func (a *Agent) LoadState(r io.Reader) error {
	var st agentState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("ddpg: decode checkpoint: %w", err)
	}
	if !reflect.DeepEqual(st.Cfg, a.cfg) {
		return fmt.Errorf("ddpg: checkpoint config %+v does not match agent config %+v", st.Cfg, a.cfg)
	}
	return a.applyState(&st, true)
}

// applyState restores a decoded checkpoint into a, whose Config
// already matches st.Cfg. resume additionally restores a carried
// replay snapshot and fast-forwards the RNG to the recorded stream
// position, which together give next-update parity. Inference-only
// consumers skip both — the fast-forward costs one generator step per
// recorded draw, a count read from the blob, and greedy inference
// never draws — so their RNG stays at its seed position.
func (a *Agent) applyState(st *agentState, resume bool) error {
	if err := loadNetwork(a.Actor, st.Actor, "actor"); err != nil {
		return err
	}
	if err := loadNetwork(a.Critic, st.Critic, "critic"); err != nil {
		return err
	}
	if err := loadNetwork(a.actorTarget, st.ActorTarget, "actor target"); err != nil {
		return err
	}
	if err := loadNetwork(a.criticTarget, st.CriticTarget, "critic target"); err != nil {
		return err
	}
	if err := a.actorOpt.SetState(st.ActorOpt, a.Actor); err != nil {
		return fmt.Errorf("ddpg: restore actor optimizer: %w", err)
	}
	if err := a.criticOpt.SetState(st.CriticOpt, a.Critic); err != nil {
		return fmt.Errorf("ddpg: restore critic optimizer: %w", err)
	}
	if err := a.noise.SetState(st.NoiseState); err != nil {
		return err
	}
	a.noise.SetSigma(st.NoiseSigma)
	a.learnSteps = st.LearnSteps
	if resume {
		a.rngSrc.skipTo(st.RNGDraws)
		if err := a.restoreReplay(st); err != nil {
			return err
		}
	}
	if a.f32 || a.actF32 {
		// Refresh the f32 mirrors from the restored f64 weights; the
		// restored f32 Adam moments continue where they left off.
		a.Actor.EnableF32()
		a.Critic.EnableF32()
		a.actorTarget.EnableF32()
		a.criticTarget.EnableF32()
	}
	return nil
}

// restoreReplay replaces the agent's still-empty buffer with the
// checkpoint's replay snapshot, at the snapshot's stripe count. The
// Config check has matched the capacity and the PER parameters.
func (a *Agent) restoreReplay(st *agentState) error {
	snap := st.ShardedReplay
	if st.Replay != nil {
		snap = &replay.ShardedState{Shards: []replay.PrioritizedState{*st.Replay}, Beta: st.Replay.Beta}
	}
	if snap == nil {
		return nil
	}
	buf, err := replay.NewSharded(a.cfg.BufferCap, len(snap.Shards), a.cfg.PERAlpha, a.cfg.PERBeta, a.cfg.PERBetaInc, 0)
	if err != nil {
		return fmt.Errorf("ddpg: restore replay: %w", err)
	}
	if err := buf.SetState(*snap); err != nil {
		return err
	}
	return a.SetReplay(buf)
}

// LoadStateBytes is LoadState from a byte slice.
func (a *Agent) LoadStateBytes(data []byte) error {
	return a.LoadState(bytes.NewReader(data))
}
