package ddpg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// Full-agent checkpoint/restore (doc.go, "Checkpoint"). Saving while
// SetFloat32 is active first flushes the trained mirrors into the f64
// weights (like ActorBytes); restoring onto an agent with an f32 path
// active refreshes its mirrors from the restored weights.

// stateMagic opens the training state behind the policy section.
const stateMagic = "GNFVAGT1"

// SaveState writes the agent's checkpoint to w, with the replay buffer
// contents when includeReplay is set (next-update parity after a restore
// needs them). SaveState(w, false) is the serving checkpoint.
func (a *Agent) SaveState(w io.Writer, includeReplay bool) error {
	b, err := a.StateBytes(includeReplay)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// StateBytes is SaveState into a fresh byte slice.
func (a *Agent) StateBytes(includeReplay bool) ([]byte, error) {
	if includeReplay && a.prioritized == nil {
		return nil, errors.New("ddpg: replay snapshot requires a prioritized agent")
	}
	nets := []*nn.Network{a.Actor, a.Critic, a.actorTarget, a.criticTarget}
	if a.f32 {
		// Make the f64 weights current; the mirrors stay authoritative.
		for _, n := range nets {
			n.FlushF32()
		}
	}
	le := binary.LittleEndian
	b := append(a.Actor.AppendParamFrame(beginSection(nil, appendConfig(nil, a.cfg), nil)), stateMagic...)
	for _, n := range nets[1:] {
		b = n.AppendParamFrame(b)
	}
	b = a.criticOpt.AppendState(a.actorOpt.AppendState(b))
	for _, v := range append(a.noise.state, a.noise.sigma) {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint64(le.AppendUint64(b, a.rngSrc.draws), uint64(a.learnSteps))
	if !includeReplay {
		return sealSection(append(b, 0)), nil
	}
	b, err := a.prioritized.AppendState(append(b, 1), a.cfg.StateDim, a.cfg.ActionDim)
	if err != nil {
		return nil, fmt.Errorf("ddpg: replay snapshot: %w", err)
	}
	return sealSection(b), nil
}

// Checkpoint is a checkpoint read and checked whole, not yet applied;
// its byte fields are slices of the bytes it was read from.
type Checkpoint struct {
	*section
	critic, actorTarget, criticTarget []byte // parameter frames
	actorOpt, criticOpt               []byte // nn.Adam states
	noise                             []float64
	sigma                             float64
	draws                             uint64
	learnSteps                        int
	replay                            []byte // nil without a snapshot
	stripes                           int
}

// LearnSteps is the learn-step counter the checkpoint records.
func (c *Checkpoint) LearnSteps() int { return c.learnSteps }

// ReadCheckpoint reads a checkpoint SaveState wrote, once, and checks
// everything the bytes can show (doc.go, "Checkpoint") — every length
// against the bytes left before anything is read or sized by it.
func ReadCheckpoint(data []byte) (*Checkpoint, error) {
	s, err := readSection(data)
	if err != nil {
		return nil, err
	}
	if len(s.state) == 0 {
		return nil, errors.New("ddpg: a policy-only checkpoint carries no training state")
	}
	if !bytes.HasPrefix(s.state, []byte(stateMagic)) {
		return nil, errors.New("ddpg: not a " + stateMagic + " training state")
	}
	b, cfg, actorLen := s.state[len(stateMagic):], s.cfg, len(s.frame)
	criticLen, ok := nn.MLPFrameLen(criticSizes(cfg))
	if !ok || 2*uint64(criticLen)+uint64(actorLen) > uint64(len(b)) {
		return nil, fmt.Errorf("ddpg: checkpoint config implies networks the %d-byte training state cannot hold", len(b))
	}
	c := &Checkpoint{section: s, critic: b[:criticLen], actorTarget: b[criticLen : criticLen+actorLen],
		criticTarget: b[criticLen+actorLen : 2*criticLen+actorLen]}
	actorParams, _ := nn.MLPParams(actorSizes(cfg))
	criticParams, _ := nn.MLPParams(criticSizes(cfg))
	if c.actorOpt, b, err = nn.SplitAdamState(b[2*criticLen+actorLen:], actorParams); err == nil {
		c.criticOpt, b, err = nn.SplitAdamState(b, criticParams)
	}
	if err != nil {
		return nil, fmt.Errorf("ddpg: checkpoint optimizer: %w", err)
	}
	// The noise (ActionDim ≤ the actor frame's length, so the bytes
	// bound it), sigma, the RNG position, LearnSteps and the replay flag.
	r := reader{b: b, ok: true}
	c.noise = make([]float64, cfg.ActionDim)
	for i := range c.noise {
		r.f64s(&c.noise[i])
	}
	r.f64s(&c.sigma)
	c.draws, c.learnSteps = uint64(r.i64()), int(r.i64())
	for _, v := range append(c.noise, c.sigma) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("ddpg: checkpoint OU noise is not finite")
		}
	}
	switch flag := r.take(1)[0]; {
	case !r.ok:
		return nil, errors.New("ddpg: checkpoint training state is truncated")
	case c.learnSteps < 0:
		return nil, fmt.Errorf("ddpg: checkpoint LearnSteps %d is negative", c.learnSteps)
	case flag == 1 && cfg.Prioritized:
		if c.replay, c.stripes, r.b, err = replay.SplitState(r.b, cfg.BufferCap, cfg.StateDim, cfg.ActionDim); err != nil {
			return nil, fmt.Errorf("ddpg: checkpoint replay: %w", err)
		}
	case flag != 0:
		return nil, fmt.Errorf("ddpg: checkpoint replay flag %d (a snapshot needs a prioritized Config)", flag)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("ddpg: %d bytes after the checkpoint's training state", len(r.b))
	}
	return c, nil
}

// LoadState restores a checkpoint into this agent, built with the
// identical Config (the seed included: the RNG stream is replayed from
// it) and, when the checkpoint carries a replay snapshot, with a still
// empty buffer, which a buffer of the snapshot's stripe count replaces.
// A refused checkpoint changes nothing.
func (a *Agent) LoadState(c *Checkpoint) error {
	if !bytes.Equal(c.config, appendConfig(nil, a.cfg)) {
		return fmt.Errorf("ddpg: checkpoint config %+v does not match agent config %+v", c.cfg, a.cfg)
	}
	return a.applyState(c, true)
}

// applyState restores c into a, whose Config is c's: what is left to
// check is checked first, then everything is written. resume also
// restores a carried replay snapshot and fast-forwards the RNG to the
// recorded position; inference skips both (the fast-forward is one
// generator step per recorded draw, and greedy inference never draws).
func (a *Agent) applyState(c *Checkpoint, resume bool) error {
	nets := []*nn.Network{a.Actor, a.Critic, a.actorTarget, a.criticTarget}
	frames := [][]byte{c.frame, c.critic, c.actorTarget, c.criticTarget}
	for i, n := range nets {
		if err := n.CheckParams(frames[i]); err != nil {
			return fmt.Errorf("ddpg: checkpoint %s: %w", [...]string{"actor", "critic", "actor target", "critic target"}[i], err)
		}
	}
	var buf *replay.Prioritized
	if resume && c.replay != nil {
		if a.prioritized.Len() > 0 {
			return errors.New("ddpg: replay already holds experience")
		}
		var err error
		if buf, err = replay.NewSharded(a.cfg.BufferCap, c.stripes, a.cfg.PERAlpha, a.cfg.PERBeta, a.cfg.PERBetaInc, 0); err == nil {
			err = buf.LoadState(c.replay, a.cfg.StateDim, a.cfg.ActionDim)
		}
		if err != nil {
			return fmt.Errorf("ddpg: restore replay: %w", err)
		}
	}

	// Nothing below can fail: the frames are checked, and the optimizer
	// states were checked against the Config's parameter counts, which
	// are these networks'.
	for i, n := range nets {
		_ = n.LoadParams(frames[i])
	}
	_ = a.actorOpt.LoadState(c.actorOpt, a.Actor)
	_ = a.criticOpt.LoadState(c.criticOpt, a.Critic)
	copy(a.noise.state, c.noise)
	a.noise.SetSigma(c.sigma)
	a.learnSteps = c.learnSteps
	if resume {
		a.rngSrc.skipTo(c.draws)
		if buf != nil {
			a.prioritized = buf
		}
	}
	if a.f32 || a.actF32 {
		for _, n := range nets {
			n.EnableF32()
		}
	}
	return nil
}
