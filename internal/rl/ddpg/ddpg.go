package ddpg

import (
	"errors"
	"math/rand"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// Config hyper-parameterizes an agent.
type Config struct {
	StateDim  int
	ActionDim int
	// Hidden are the MLP hidden-layer widths for both networks.
	Hidden []int
	// ActorLR and CriticLR are Adam learning rates.
	ActorLR, CriticLR float64
	// Gamma is the discount factor γ.
	Gamma float64
	// Tau is the soft-target update rate τ (Algorithm 2 lines 9–10).
	Tau float64
	// BatchSize is the minibatch size N (Algorithm 2 line 3).
	BatchSize int
	// BufferCap is the replay capacity R.
	BufferCap int
	// Prioritized selects prioritized experience replay (the Ape-X
	// configuration) over uniform sampling.
	Prioritized bool
	// PERAlpha/PERBeta/PERBetaInc are prioritized-replay parameters.
	PERAlpha, PERBeta, PERBetaInc float64
	// OUTheta/OUSigma shape the Ornstein-Uhlenbeck exploration noise
	// N_t added to actions (Algorithm 2 line 1).
	OUTheta, OUSigma float64
	// NoiseDecay multiplies sigma after every Learn call so
	// exploration anneals.
	NoiseDecay float64
	// Seed fixes all randomness.
	Seed int64
}

// DefaultConfig returns hyperparameters tuned for the GreenNFV
// environment (12–15 dimensional states/actions).
func DefaultConfig(stateDim, actionDim int) Config {
	return Config{
		StateDim:  stateDim,
		ActionDim: actionDim,
		Hidden:    []int{48, 48},
		ActorLR:   1e-3, CriticLR: 2e-3,
		Gamma: 0.95, Tau: 0.01,
		BatchSize: 32, BufferCap: 1 << 16,
		Prioritized: true,
		PERAlpha:    0.6, PERBeta: 0.4, PERBetaInc: 1e-5,
		OUTheta: 0.15, OUSigma: 0.35,
		NoiseDecay: 0.99995,
		Seed:       1,
	}
}

// Validate reports whether the configuration is trainable.
func (c Config) Validate() error {
	switch {
	case c.StateDim <= 0 || c.ActionDim <= 0:
		return errors.New("ddpg: state and action dims must be positive")
	case len(c.Hidden) == 0:
		return errors.New("ddpg: need at least one hidden layer")
	case c.ActorLR <= 0 || c.CriticLR <= 0:
		return errors.New("ddpg: learning rates must be positive")
	case c.Gamma < 0 || c.Gamma > 1:
		return errors.New("ddpg: gamma must be in [0,1] (0 = myopic/bandit)")
	case c.Tau <= 0 || c.Tau > 1:
		return errors.New("ddpg: tau must be in (0,1]")
	case c.BatchSize <= 0 || c.BufferCap < c.BatchSize:
		return errors.New("ddpg: need batch <= buffer capacity")
	case c.BufferCap > maxBufferCap:
		return errors.New("ddpg: buffer capacity beyond 2^40 transitions")
	}
	return nil
}

// maxBufferCap bounds Config.BufferCap far above any memory, and below
// where rounding the replay's sum tree up to a power of two overflows.
const maxBufferCap = 1 << 40

// OUNoise is an Ornstein-Uhlenbeck process: temporally correlated
// exploration noise suited to physical control problems.
type OUNoise struct {
	theta, sigma float64
	state        []float64
	rng          *rand.Rand
}

// NewOUNoise builds a process over dim dimensions.
func NewOUNoise(dim int, theta, sigma float64, rng *rand.Rand) *OUNoise {
	return &OUNoise{theta: theta, sigma: sigma, state: make([]float64, dim), rng: rng}
}

// Sample advances the process one step and returns the noise vector
// (owned by the process; copy to retain).
func (o *OUNoise) Sample() []float64 {
	for i := range o.state {
		o.state[i] += o.theta*(-o.state[i]) + o.sigma*o.rng.NormFloat64()
	}
	return o.state
}

// SetSigma rescales the diffusion term.
func (o *OUNoise) SetSigma(s float64) { o.sigma = s }

// Sigma reports the current diffusion scale.
func (o *OUNoise) Sigma() float64 { return o.sigma }

// Reset zeroes the process state.
func (o *OUNoise) Reset() {
	for i := range o.state {
		o.state[i] = 0
	}
}

// countedSource is a rand.Source64 that counts draws, so a checkpoint
// can record the stream position and a restored agent can fast-forward
// a freshly seeded source to the identical point. Wrapping changes
// nothing about the stream itself: rand.Rand derives every value from
// the source's Int63/Uint64 outputs, which pass through untouched —
// the recorded deterministic figures depend on that.
type countedSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

// newCountedSource seeds a counted source exactly like
// rand.NewSource(seed).
func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed, c.draws = seed, 0
}

// skipTo re-seeds and discards draws until the stream sits at the
// recorded position (each Int63/Uint64 advances the underlying
// generator by exactly one step, so discarding via Uint64 is exact).
func (c *countedSource) skipTo(draws uint64) {
	c.src.Seed(c.seed)
	for i := uint64(0); i < draws; i++ {
		c.src.Uint64()
	}
	c.draws = draws
}

// Agent is one DDPG learner-actor pair with target networks and a
// replay buffer: the acting View plus what training needs.
type Agent struct {
	*View
	cfg    Config
	rng    *rand.Rand
	rngSrc *countedSource // rng's source, counted for checkpoint/restore

	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	uniform     *replay.Uniform
	prioritized *replay.Prioritized

	learnSteps int
	// sample buffers and the TD errors for priority updates, sized on
	// first use and reused forever.
	batchBuf  []replay.Transition
	idxBuf    []int
	weightBuf []float64
	tdErrBuf  []float64
	// minibatch scratch of the update, one per element type (f32: the
	// fast path SetFloat32 enables, which no trainer turns on).
	f32 bool
	s64 scratch[float64]
	s32 scratch[float32]
}

// float is the element type of an update or a batched acting pass.
type float interface{ float32 | float64 }

// scratch holds the row-major matrices one update of n transitions
// feeds to the batched network passes, at one element type; sized by
// the first update (bootstrapTargets) and reused forever.
type scratch[T float] struct {
	states     []T // n × StateDim
	nextStates []T // n × StateDim
	nextSA     []T // n × (StateDim+ActionDim)
	y          []T // n targets
	// The critic pass: the regression rows and, stacked behind them in
	// the fused update, the action-gradient probe rows.
	sa []T // 2n × (StateDim+ActionDim)
	dq []T // 2n dL/dQ
}

// convert is copy from the float64 replay into a matrix row of element
// type T; like copy it stops at the shorter of the two. At float64 it
// is copy.
func convert[T float](dst []T, src []float64) {
	if d, ok := any(dst).([]float64); ok {
		copy(d, src)
		return
	}
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	for j, v := range src {
		dst[j] = T(v)
	}
}

// New builds an agent from a validated configuration.
func New(cfg Config) (*Agent, error) {
	src := newCountedSource(cfg.Seed)
	rng := rand.New(src)
	view, err := newView(cfg, rng, true)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		View:      view,
		cfg:       cfg,
		rng:       rng,
		rngSrc:    src,
		actorOpt:  nn.MustAdam(cfg.ActorLR),
		criticOpt: nn.MustAdam(cfg.CriticLR),
	}
	a.criticOpt.ClipNorm = 5
	a.actorOpt.ClipNorm = 5
	if cfg.Prioritized {
		a.prioritized, err = replay.NewPrioritized(cfg.BufferCap, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc)
	} else {
		a.uniform, err = replay.NewUniform(cfg.BufferCap)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// Observe stores a transition in the replay buffer.
func (a *Agent) Observe(t replay.Transition) {
	if a.prioritized != nil {
		a.prioritized.Add(t)
		return
	}
	a.uniform.Add(t)
}

// ObserveBatch stores a chunk of transitions with their priorities in
// one replay call — one lock acquire per chunk instead of one per
// transition. priorities may be nil (maximal priority).
func (a *Agent) ObserveBatch(ts []replay.Transition, priorities []float64) {
	if a.prioritized != nil {
		a.prioritized.AddBatch(ts, priorities)
		return
	}
	for i := range ts {
		a.uniform.Add(ts[i])
	}
}

// BufferLen reports stored transitions.
func (a *Agent) BufferLen() int {
	if a.prioritized != nil {
		return a.prioritized.Len()
	}
	return a.uniform.Len()
}

// SetReplay swaps the prioritized replay buffer — the concurrent Ape-X
// pipeline installs one striped over more shards before any experience
// flows. Only allowed on a prioritized agent whose buffer is still
// empty, so no experience is silently dropped.
func (a *Agent) SetReplay(buf *replay.Prioritized) error {
	if a.prioritized == nil {
		return errors.New("ddpg: agent is not configured for prioritized replay")
	}
	if buf == nil {
		return errors.New("ddpg: nil replay buffer")
	}
	if a.prioritized.Len() > 0 {
		return errors.New("ddpg: replay already holds experience")
	}
	a.prioritized = buf
	return nil
}

// Replay exposes the prioritized replay buffer currently installed
// (nil for uniform agents) — introspection for tests and monitoring.
func (a *Agent) Replay() *replay.Prioritized { return a.prioritized }

// SampleReplayInto samples a minibatch from the agent's prioritized
// replay into caller-owned buffers. With a goroutine-safe buffer it
// may run concurrently with LearnBatch — the Ape-X prefetcher's
// sampler goroutine fills the next minibatch while the learner
// consumes the current one.
func (a *Agent) SampleReplayInto(rng *rand.Rand, n int, samples []replay.Transition, indices []int, weights []float64) ([]replay.Transition, []int, []float64) {
	if a.prioritized == nil {
		return nil, nil, nil
	}
	return a.prioritized.SampleInto(rng, n, samples, indices, weights)
}

// Learn runs one DDPG update (Algorithm 2): sample a minibatch,
// regress the critic on the bootstrapped target, ascend the actor
// along the critic's action-gradient, and soft-update both targets.
// It returns the mean critic loss, or 0 when the buffer has fewer
// than BatchSize samples.
//
// All three network passes (critic target, critic regression, actor
// ascent) run batched over row-major [BatchSize × dim] matrices with
// agent-owned scratch, so the steady state allocates nothing.
func (a *Agent) Learn() float64 {
	n := a.cfg.BatchSize
	if a.BufferLen() < n {
		return 0
	}
	var indices []int
	var weights []float64
	if a.prioritized != nil {
		a.batchBuf, a.idxBuf, a.weightBuf = a.prioritized.SampleInto(a.rng, n,
			nn.Grow(a.batchBuf, n), nn.Grow(a.idxBuf, n), nn.Grow(a.weightBuf, n))
		indices, weights = a.idxBuf, a.weightBuf
	} else {
		a.batchBuf = a.uniform.SampleInto(a.rng, n, nn.Grow(a.batchBuf, n))
	}
	return a.learnMinibatch(a.batchBuf, indices, weights, false)
}

// LearnBatch runs one update on an externally sampled minibatch — the
// Ape-X prefetcher path, where a sampler goroutine fills the next
// minibatch while this one is consumed. It uses the FUSED critic
// pass: the regression rows and the dQ/da probe rows go through one
// 2n-row forward/backward (nn.BackwardBatchSplit), cutting one full
// ForwardBatch call and one weight transpose per layer per step. The
// fused ordering evaluates dQ/da against the pre-update critic (the
// sequential Learn uses the just-updated critic), which is why the
// deterministic round-robin path keeps the unfused sequence and stays
// byte-identical. Updated priorities are written back through
// UpdatePrioritiesBatch.
func (a *Agent) LearnBatch(batch []replay.Transition, indices []int, weights []float64) float64 {
	if len(batch) > a.cfg.BatchSize {
		batch = batch[:a.cfg.BatchSize] // scratch is sized to BatchSize
	}
	return a.learnMinibatch(batch, indices, weights, true)
}

// learnMinibatch routes one update: the fused body (learnFused) for
// LearnBatch, and for both entry points while SetFloat32 is active;
// otherwise the unfused sequence, which is op-for-op the historical
// Learn and must stay byte-identical.
func (a *Agent) learnMinibatch(batch []replay.Transition, indices []int, weights []float64, fused bool) float64 {
	if len(batch) == 0 {
		return 0
	}
	if a.f32 {
		return learnFused(a, &a.s32, batch, indices, weights)
	}
	if fused {
		return learnFused(a, &a.s64, batch, indices, weights)
	}

	s := &a.s64
	n := len(batch)
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A
	bootstrapTargets(a, s, batch)

	// Critic update: minimize Σ w_i (y_i − Q(s_i, a_i))².
	q := a.Critic.ForwardBatch(s.sa, n)
	var loss float64
	for i := range batch {
		diff := q[i] - s.y[i]
		a.tdErrBuf[i] = -diff
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		loss += w * diff * diff
		s.dq[i] = w * diff
	}
	a.Critic.ZeroGrad()
	a.Critic.BackwardBatchParams(s.dq, n)
	nn.AdamStep(a.criticOpt, a.Critic, 1/float64(n), a.criticTarget, a.cfg.Tau)
	loss /= float64(n)

	if a.prioritized != nil && indices != nil {
		a.prioritized.UpdatePrioritiesBatch(indices, a.tdErrBuf[:n])
	}

	// Actor update: ascend E[Q(s, μ(s))] — equation 6. Push dQ/da
	// back through the critic and through the actor in one batched
	// pass each; BackwardBatchInput leaves the critic's own gradients
	// untouched, so no ZeroGrad bookkeeping is needed around it, and
	// returns the action columns of dQ/d(s, a) alone: the actor's dY.
	actions := a.Actor.ForwardBatch(s.states, n)
	for i := 0; i < n; i++ {
		copy(s.sa[i*SA+S:(i+1)*SA], actions[i*A:(i+1)*A]) // states already in place
	}
	a.Critic.ForwardBatch(s.sa, n)
	for i := 0; i < n; i++ {
		s.dq[i] = -1 // ascend Q
	}
	dAct := a.Critic.BackwardBatchInput(s.dq, n, S)
	a.Actor.ZeroGrad()
	a.Actor.BackwardBatchParams(dAct, n)
	nn.AdamStep(a.actorOpt, a.Actor, 1/float64(n), a.actorTarget, a.cfg.Tau)

	a.finishUpdate()
	return loss
}

// bootstrapTargets is the head every update shares. It sizes the
// update's scratch, assembles the minibatch matrices at element type T
// straight from the float64 transitions — states, next states, the regression rows of the critic
// input, the state columns of the target critic input (its action
// columns come from the target actor) — and computes the bootstrapped
// targets y_i = r_i + γ Q'(s', μ'(s')).
func bootstrapTargets[T float](a *Agent, s *scratch[T], batch []replay.Transition) {
	n := len(batch)
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A
	a.tdErrBuf = nn.Grow(a.tdErrBuf, n)
	s.states = nn.Grow(s.states, n*S)
	s.nextStates = nn.Grow(s.nextStates, n*S)
	s.nextSA = nn.Grow(s.nextSA, n*SA)
	s.y = nn.Grow(s.y, n)
	s.sa = nn.Grow(s.sa, 2*n*SA)
	s.dq = nn.Grow(s.dq, 2*n)
	for i := range batch {
		t := &batch[i]
		convert(s.states[i*S:(i+1)*S], t.State)
		convert(s.nextStates[i*S:(i+1)*S], t.NextState)
		convert(s.sa[i*SA:i*SA+S], t.State)
		convert(s.sa[i*SA+S:(i+1)*SA], t.Action)
		convert(s.nextSA[i*SA:i*SA+S], t.NextState)
	}
	nextA := nn.ForwardBatch(a.actorTarget, s.nextStates, n)
	for i := 0; i < n; i++ {
		copy(s.nextSA[i*SA+S:(i+1)*SA], nextA[i*A:(i+1)*A])
	}
	qNext := nn.ForwardBatch(a.criticTarget, s.nextSA, n)
	gamma := T(a.cfg.Gamma)
	for i := range batch {
		y := T(batch[i].Reward)
		if !batch[i].Done {
			y += gamma * qNext[i]
		}
		s.y[i] = y
	}
}

// learnFused is the fused update at element type T: after the shared
// head, one 2n-row critic forward over [regression rows; (s, μ(s))
// probe rows] and one BackwardBatchSplit that keeps parameter
// gradients from the first half while returning the action-column
// input gradients of the second, then the actor ascent — each network's
// optimizer step carrying its target's soft update — all through nn's
// batch engine at T, zero allocations once warm. The
// places it leaves T are the same at either type and are identities at
// float64: the TD errors and the loss are widened from a product
// computed in T, importance weights are narrowed to T, and everything
// after the optimizer steps is float64 bookkeeping.
func learnFused[T float](a *Agent, s *scratch[T], batch []replay.Transition, indices []int, weights []float64) float64 {
	n := len(batch)
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A
	bootstrapTargets(a, s, batch)

	// Probe actions μ(s) from the online actor; its cached
	// activations feed the actor backward below (the critic passes in
	// between do not disturb them).
	actions := nn.ForwardBatch(a.Actor, s.states, n)
	for i := 0; i < n; i++ {
		row := s.sa[(n+i)*SA : (n+i+1)*SA]
		copy(row[:S], s.states[i*S:(i+1)*S])
		copy(row[S:], actions[i*A:(i+1)*A])
	}

	q2 := nn.ForwardBatch(a.Critic, s.sa, 2*n)
	var loss float64
	for i := 0; i < n; i++ {
		diff := q2[i] - s.y[i]
		a.tdErrBuf[i] = float64(-diff)
		w := T(1)
		if weights != nil {
			w = T(weights[i])
		}
		loss += float64(w * diff * diff)
		s.dq[i] = w * diff
		s.dq[n+i] = -1 // ascend Q along the probe rows
	}
	tau := T(a.cfg.Tau)
	nn.ZeroGrad[T](a.Critic)
	dAct := nn.BackwardBatchSplit(a.Critic, s.dq, 2*n, n, S)
	nn.AdamStep(a.criticOpt, a.Critic, 1/T(n), a.criticTarget, tau)
	loss /= float64(n)

	if a.prioritized != nil && indices != nil {
		a.prioritized.UpdatePrioritiesBatch(indices, a.tdErrBuf[:n])
	}

	nn.ZeroGrad[T](a.Actor)
	nn.BackwardBatchParams(a.Actor, dAct, n)
	nn.AdamStep(a.actorOpt, a.Actor, 1/T(n), a.actorTarget, tau)

	a.finishUpdate()
	return loss
}

// finishUpdate is the per-step bookkeeping every update shares.
func (a *Agent) finishUpdate() {
	a.learnSteps++
	if a.cfg.NoiseDecay > 0 && a.cfg.NoiseDecay < 1 {
		a.noise.SetSigma(a.noise.Sigma() * a.cfg.NoiseDecay)
	}
}

// LearnSteps reports completed updates.
func (a *Agent) LearnSteps() int { return a.learnSteps }

// ReleaseTrainingMemory lets go, in place, of what only training reads:
// the replay's contents (replay.Prioritized.Release), the update's and
// the batched acting passes' scratch at both element types, the batch
// caches of the critic and both targets, and the actor's backward
// scratch. The actor keeps its forward caches, so a deployed policy's
// one-row pass still allocates nothing. Everything a checkpoint records
// stays, so ActInto, TDError, ActorBytes and SaveState(w, false) give
// the same bits before and after; Learn returns 0 until BatchSize
// transitions arrive again, and the scratch regrows on the next pass.
// It allocates nothing.
func (a *Agent) ReleaseTrainingMemory() {
	if a.prioritized != nil {
		a.prioritized.Release()
	} else {
		a.uniform.Release()
	}
	a.batchBuf, a.idxBuf, a.weightBuf, a.tdErrBuf = nil, nil, nil, nil
	a.s64, a.s32 = scratch[float64]{}, scratch[float32]{}
	a.act64, a.act32 = actScratch[float64]{}, actScratch[float32]{}
	a.Actor.DropCaches(true)
	a.Critic.DropCaches(false)
	a.actorTarget.DropCaches(false)
	a.criticTarget.DropCaches(false)
}

// ActorBytes is AppendActorBytes into a new buffer of exactly the
// frame's size, which the agent never touches again: the saved policy
// file. The error is always nil (the signature predates the frame).
func (a *Agent) ActorBytes() ([]byte, error) {
	if a.f32 {
		a.Actor.FlushF32()
	}
	return a.Actor.ParamFrame(), nil
}

// AppendActorBytes appends the actor's parameters to dst as one nn
// parameter frame — the Ape-X broadcast, which re-encodes each version
// into the last one's buffer once no puller holds it (internal/rl/apex).
// On the float32 path the trained mirrors are flushed to the f64
// weights first, so a frame always carries the current policy.
func (a *Agent) AppendActorBytes(dst []byte) []byte {
	if a.f32 {
		a.Actor.FlushF32()
	}
	return a.Actor.AppendParamFrame(dst)
}

// concat appends a and b into dst and returns it.
func concat(dst, a, b []float64) []float64 {
	dst = append(dst, a...)
	dst = append(dst, b...)
	return dst
}
