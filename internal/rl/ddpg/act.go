package ddpg

import (
	"fmt"
	"math/rand"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// This file is the acting half of DDPG: View, which every Ape-X actor
// holds and Agent embeds, with ActInto and TDErrorBatch (one fused pass
// over a push window's priorities); Policy, its actor-only part, which
// a serving replica holds; and ActBatch, which only bench/'s f32 acting
// probe calls. Two precision regimes share the batched entry points:
//
//   - f64 (default): nn.ForwardRows, whose per-row results are
//     bit-identical to a one-row pass — nn's Forward, which ActInto and
//     TDError run. Batching over rows changes NOTHING numerically — the
//     deterministic round-robin figure path and the remote actors'
//     bit-for-bit priority verification both rely on this.
//   - f32 (SetActFloat32): nn.ForwardBatchF32 over the f32 parameter
//     mirrors — the vectorized 8-lane kernels. Not bit-comparable to
//     f64; the acting parity test bounds |Δaction| ≤ 1e-3. No trainer
//     mode enables it.
//
// All entry points run over view-owned scratch: zero allocations in
// steady state (buffers grow to the largest batch seen and stick).

// actScratch holds the matrices the batched acting passes assemble at
// one element type, grown to the largest batch seen.
type actScratch[T float] struct {
	states []T // n × StateDim: TDErrorBatch's next states, ActBatch's converted input
	nextSA []T // n × (StateDim+ActionDim) target critic input
	sa     []T // n × (StateDim+ActionDim) critic input
}

// Policy is the actor-only part of acting: the policy network and its
// dimensions. It owns forward scratch, so each concurrent caller needs
// its own; PolicyFromFrame builds one from an actor frame.
type Policy struct {
	Actor               *nn.Network
	stateDim, actionDim int
}

// Greedy writes the clamped greedy action for state into dst (length
// ActionDim), allocating nothing.
func (p *Policy) Greedy(state, dst []float64) error { return p.actInto(state, nil, dst) }

// actInto runs the actor on one state into dst: dimension checks,
// forward, optional noise, clamp to [-1, 1] — the single definition
// every way of acting shares.
func (p *Policy) actInto(state []float64, noise *OUNoise, dst []float64) error {
	if len(state) != p.stateDim {
		return fmt.Errorf("ddpg: state dim %d, want %d", len(state), p.stateDim)
	}
	if len(dst) != p.actionDim {
		return fmt.Errorf("ddpg: action dst dim %d, want %d", len(dst), p.actionDim)
	}
	copy(dst, p.Actor.Forward(state))
	finishAction(dst, noise)
	return nil
}

// finishAction adds one draw of noise (none when nil) to a policy
// output and clamps it to [-1, 1].
func finishAction(dst []float64, noise *OUNoise) {
	if noise != nil {
		for i, v := range noise.Sample() {
			dst[i] += v
		}
	}
	for i, v := range dst {
		dst[i] = max(-1, min(1, v))
	}
}

// View is the inference view of an agent: the Policy, the priority
// networks (critic and both targets, frozen: only a learner's update
// moves them, and a broadcast carries the policy alone), the OU noise,
// γ and the acting scratch — inference-only networks, no optimizer, no
// replay. Agent embeds one with a trainable policy and critic, so
// acting has one definition.
type View struct {
	Policy
	Critic                    *nn.Network
	actorTarget, criticTarget *nn.Network
	noise                     *OUNoise
	gamma                     float64
	saBuf                     []float64 // TDError's critic input
	// batched acting scratch, one per element type (f32: SetActFloat32
	// routes ActBatch/TDErrorBatch through the f32 batch engine).
	actF32 bool
	act64  actScratch[float64]
	act32  actScratch[float32]
}

// NewView builds the view New(cfg) embeds. The configuration is
// validated exactly as New validates it (actor specs arrive from other
// processes), and the seeded stream is drawn in New's order — actor
// init, critic init, then the OU noise on the same stream — so actions
// and priorities are bit-identical to New(cfg)'s.
func NewView(cfg Config) (*View, error) {
	return newView(cfg, rand.New(newCountedSource(cfg.Seed)), false)
}

// newView validates cfg and builds a view whose networks and noise draw
// from rng; trainable gives the policy and critic gradient buffers (an
// Agent's view).
func newView(cfg Config, rng *rand.Rand, trainable bool) (*View, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, err := newPolicy(cfg, rng, trainable)
	if err != nil {
		return nil, err
	}
	critic, err := nn.NewMLP(criticSizes(cfg), nn.ReLU, nn.Linear, rng, trainable)
	if err != nil {
		return nil, err
	}
	return &View{
		Policy:       policy,
		Critic:       critic,
		actorTarget:  policy.Actor.Clone(),
		criticTarget: critic.Clone(),
		noise:        NewOUNoise(cfg.ActionDim, cfg.OUTheta, cfg.OUSigma, rng),
		gamma:        cfg.Gamma,
		saBuf:        make([]float64, cfg.StateDim+cfg.ActionDim),
	}, nil
}

// ActInto writes the clamped policy action for state into dst, which
// must have length ActionDim, adding OU noise when explore is set. It
// allocates nothing.
func (v *View) ActInto(state []float64, explore bool, dst []float64) error {
	var noise *OUNoise
	if explore {
		noise = v.noise
	}
	return v.actInto(state, noise, dst)
}

// TDError computes the temporal-difference error of a single
// transition under the current networks — the scalar reference
// TDErrorBatch is bit-identical to.
func (v *View) TDError(t replay.Transition) float64 {
	target := t.Reward
	if !t.Done {
		nextA := v.actorTarget.Forward(t.NextState)
		q := v.criticTarget.Forward(concat(v.saBuf[:0], t.NextState, nextA))
		target += v.gamma * q[0]
	}
	q := v.Critic.Forward(concat(v.saBuf[:0], t.State, t.Action))
	return target - q[0]
}

// LoadActorBytes replaces the policy's parameters in place from an
// ActorBytes frame, copied without allocating. Bytes that are not a
// frame matching the actor's shape and activations leave it untouched.
// While the f32 acting path is active the actor's mirrors are refreshed
// from the new weights.
func (v *View) LoadActorBytes(data []byte) error {
	if err := v.Actor.LoadParams(data); err != nil {
		return err
	}
	if v.actF32 {
		v.Actor.EnableF32()
	}
	return nil
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
		var noise *OUNoise
		if noises != nil {
			noise = noises[r]
		}
		finishAction(dst[r*A:(r+1)*A], noise)
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
// are sampling weights, not gradients — the f32 drift is harmless).
func (v *View) TDErrorBatch(batch []replay.Transition, out []float64) []float64 {
	out = nn.Grow(out, len(batch))
	if len(batch) == 0 {
		return out
	}
	if v.actF32 {
		return tdErrorBatch(v, &v.act32, nn.ForwardBatch[float32], batch, out)
	}
	return tdErrorBatch(v, &v.act64, (*nn.Network).ForwardRows, batch, out)
}

// tdErrorBatch is TDErrorBatch at element type T through the given
// batched forward: three passes (target actor, target critic, critic)
// over matrices assembled from the float64 transitions, with the final
// target/error arithmetic in float64 over the widened Q values.
func tdErrorBatch[T float](v *View, s *actScratch[T], forward func(*nn.Network, []T, int) []T, batch []replay.Transition, out []float64) []float64 {
	n := len(batch)
	S, A := v.stateDim, v.actionDim
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
	nextA := forward(v.actorTarget, s.states, n)
	for i := 0; i < n; i++ {
		copy(s.nextSA[i*SA+S:(i+1)*SA], nextA[i*A:(i+1)*A])
	}
	// qNext lives in the target critic's output buffer, so the critic
	// pass below must run on another network, even in an actor's view,
	// where the two hold the same weights forever.
	qNext := forward(v.criticTarget, s.nextSA, n)
	q := forward(v.Critic, s.sa, n)
	for i := range batch {
		target := batch[i].Reward
		if !batch[i].Done {
			target += v.gamma * float64(qNext[i])
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
// Scalar ActInto/TDError always stay on the f64 weights.
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
