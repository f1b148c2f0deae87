package ddpg

import (
	"fmt"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// This file is the acting half of the agent: ActInto, the allocation-free
// scalar act every Ape-X actor steps through; TDErrorBatch, one fused
// pass over an actor's whole push window of TD-error priorities; and
// ActBatch, one network pass for n states' actions, which no trainer
// calls (apex steps one Actor type through ActInto); bench/'s f32
// acting probe does. Two precision regimes share the batched entry
// points:
//
//   - f64 (default): nn.ForwardRows, whose per-row results are
//     bit-identical to the scalar Forward. Batching over rows changes
//     NOTHING numerically — the deterministic round-robin figure path
//     and the remote actors' bit-for-bit priority verification both
//     rely on this.
//   - f32 (SetActFloat32): nn.ForwardBatchF32 over the f32 parameter
//     mirrors — the vectorized 8-lane kernels. Not bit-comparable to
//     f64; the acting parity test bounds |Δaction| ≤ 1e-3. No trainer
//     mode enables it.
//
// All entry points run over agent-owned scratch: zero allocations in
// steady state (buffers grow to the largest batch seen and stick).

// actScratch holds the matrices the batched acting passes assemble at
// one element type, grown to the largest batch seen.
type actScratch[T float] struct {
	states []T // n × StateDim: TDErrorBatch's next states, ActBatch's converted input
	nextSA []T // n × (StateDim+ActionDim) target critic input
	sa     []T // n × (StateDim+ActionDim) critic input
}

// ActInto is Act without the per-call allocation: the clamped policy
// action (plus OU noise when explore is set) is written into dst,
// which must have length ActionDim. The result is bit-identical to Act
// and consumes the agent's noise RNG identically.
func (a *Agent) ActInto(state []float64, explore bool, dst []float64) error {
	var noise *OUNoise
	if explore {
		noise = a.noise
	}
	return actInto(a.Actor, a.cfg.StateDim, a.cfg.ActionDim, state, noise, dst)
}

// actInto runs one scalar actor pass into dst: dimension checks,
// forward, optional noise, clamp to [-1, 1] — the single definition
// Agent.ActInto and GreedyActor.ActInto share.
func actInto(actor *nn.Network, stateDim, actionDim int, state []float64, noise *OUNoise, dst []float64) error {
	if len(state) != stateDim {
		return fmt.Errorf("ddpg: state dim %d, want %d", len(state), stateDim)
	}
	if len(dst) != actionDim {
		return fmt.Errorf("ddpg: action dst dim %d, want %d", len(dst), actionDim)
	}
	copy(dst, actor.Forward(state))
	if noise != nil {
		for i, v := range noise.Sample() {
			dst[i] += v
		}
	}
	for i := range dst {
		if dst[i] < -1 {
			dst[i] = -1
		}
		if dst[i] > 1 {
			dst[i] = 1
		}
	}
	return nil
}

// GreedyActor is an inference-only replica of an agent's policy: the
// actor network and nothing else — no critics, targets, optimiser
// moments or replay arena. Its ActInto is bit-identical to the source
// agent's greedy ActInto. A GreedyActor owns forward scratch, so each
// concurrent caller needs its own; Clone makes one from any replica
// (concurrent Clones of one replica are safe — they only read it).
type GreedyActor struct {
	actor               *nn.Network
	stateDim, actionDim int
}

// GreedyActor returns an independent greedy replica of the agent's
// current policy.
func (a *Agent) GreedyActor() *GreedyActor {
	return &GreedyActor{actor: a.Actor.Clone(), stateDim: a.cfg.StateDim, actionDim: a.cfg.ActionDim}
}

// Clone returns an independent replica with the same weights.
func (g *GreedyActor) Clone() *GreedyActor {
	c := *g
	c.actor = g.actor.Clone()
	return &c
}

// ActInto writes the clamped greedy action for state into dst (length
// ActionDim), allocating nothing.
func (g *GreedyActor) ActInto(state, dst []float64) error {
	return actInto(g.actor, g.stateDim, g.actionDim, state, nil, dst)
}

// ActBatch computes policy actions for n states (row-major
// [n × StateDim]) in ONE actor-network pass, writing the clamped
// actions into dst ([n × ActionDim]). noises[i], when non-nil, supplies
// row i's exploration noise — each parallel actor keeps its own OU
// process so the Ape-X exploration ladder survives batching. noises
// may be nil (greedy batch).
//
// On the f64 path each row is bit-identical to ActInto with the same
// noise process. With SetActFloat32 the pass runs through the f32
// batch engine instead (vectorized, NOT bit-comparable; the parity
// test bounds the drift).
func (a *Agent) ActBatch(states []float64, n int, noises []*OUNoise, dst []float64) error {
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	if len(states) < n*S {
		return fmt.Errorf("ddpg: ActBatch states len %d, want %d", len(states), n*S)
	}
	if len(dst) < n*A {
		return fmt.Errorf("ddpg: ActBatch dst len %d, want %d", len(dst), n*A)
	}
	if noises != nil && len(noises) < n {
		return fmt.Errorf("ddpg: ActBatch has %d noise processes for %d rows", len(noises), n)
	}
	if a.actF32 {
		a.act32.states = nn.Grow(a.act32.states, n*S)
		convert(a.act32.states, states)
		out := a.Actor.ForwardBatchF32(a.act32.states, n)
		for i, v := range out[:n*A] {
			dst[i] = float64(v)
		}
	} else {
		out := a.Actor.ForwardRows(states, n)
		copy(dst[:n*A], out)
	}
	for r := 0; r < n; r++ {
		row := dst[r*A : (r+1)*A]
		if noises != nil && noises[r] != nil {
			noise := noises[r].Sample()
			for i := range row {
				row[i] += noise[i]
			}
		}
		for i := range row {
			if row[i] < -1 {
				row[i] = -1
			}
			if row[i] > 1 {
				row[i] = 1
			}
		}
	}
	return nil
}

// TDErrorBatch computes the signed TD errors of a whole transition
// batch in three batched network passes (target actor, target critic,
// critic) instead of 3·n scalar forwards — the Ape-X actors' priority
// computation at Flush granularity. The errors are appended to out
// (truncated to length zero first) and the returned slice is valid
// until the next call.
//
// On the f64 path out[i] is bit-identical to TDError(batch[i]); with
// SetActFloat32 the passes run through the f32 batch engine (priorities
// are sampling weights, not gradients — the f32 drift is harmless and
// the parallel mode that enables it is non-deterministic anyway).
func (a *Agent) TDErrorBatch(batch []replay.Transition, out []float64) []float64 {
	out = nn.Grow(out, len(batch))
	if len(batch) == 0 {
		return out
	}
	if a.actF32 {
		return tdErrorBatch(a, &a.act32, nn.ForwardBatch[float32], batch, out)
	}
	return tdErrorBatch(a, &a.act64, (*nn.Network).ForwardRows, batch, out)
}

// tdErrorBatch is TDErrorBatch at element type T through the given
// batched forward: three passes (target actor, target critic, critic)
// over matrices assembled from the float64 transitions, with the final
// target/error arithmetic in float64 over the widened Q values.
func tdErrorBatch[T float](a *Agent, s *actScratch[T], forward func(*nn.Network, []T, int) []T, batch []replay.Transition, out []float64) []float64 {
	n := len(batch)
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A
	s.states = nn.Grow(s.states, n*S)
	s.nextSA = nn.Grow(s.nextSA, n*SA)
	s.sa = nn.Grow(s.sa, n*SA)
	for i := range batch {
		t := &batch[i]
		convert(s.states[i*S:(i+1)*S], t.NextState)
		convert(s.nextSA[i*SA:i*SA+S], t.NextState)
		convert(s.sa[i*SA:i*SA+S], t.State)
		convert(s.sa[i*SA+S:(i+1)*SA], t.Action)
	}
	nextA := forward(a.actorTarget, s.states, n)
	for i := 0; i < n; i++ {
		copy(s.nextSA[i*SA+S:(i+1)*SA], nextA[i*A:(i+1)*A])
	}
	qNext := forward(a.criticTarget, s.nextSA, n)
	q := forward(a.Critic, s.sa, n)
	for i := range batch {
		target := batch[i].Reward
		if !batch[i].Done {
			target += a.cfg.Gamma * float64(qNext[i])
		}
		out[i] = target - float64(q[i])
	}
	return out
}

// SetActFloat32 switches ActBatch/TDErrorBatch between the bit-exact
// f64 row path and the vectorized f32 batch engine. Enabling snapshots
// all four networks' f32 mirrors from the current f64 weights.
//
// The flag is for ACTING agents — Ape-X actors that never Learn and
// whose f64 weights therefore never go stale outside LoadActorBytes
// (which refreshes the actor mirror itself). It is independent of
// SetFloat32, the learner-side precision switch; enabling both on one
// agent is unsupported (the learner trains the f32 mirrors, and a
// re-snapshot from the stale f64 weights would revert them), and
// SetActFloat32 is a no-op while the learn path owns the mirrors.
// Scalar Act/ActInto/TDError always stay on the f64 weights.
func (a *Agent) SetActFloat32(enable bool) {
	if a.f32 {
		return // learn path owns the mirrors
	}
	a.actF32 = enable
	if enable {
		a.Actor.EnableF32()
		a.actorTarget.EnableF32()
		a.Critic.EnableF32()
		a.criticTarget.EnableF32()
	}
}
