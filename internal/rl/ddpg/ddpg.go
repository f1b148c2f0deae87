package ddpg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// PrioritizedReplay abstracts the prioritized buffer the agent
// samples from: the single-tree replay.Prioritized (default — its RNG
// stream is what the recorded deterministic figures use) and the
// lock-striped replay.Sharded (the parallel Ape-X trainer) both
// satisfy it.
type PrioritizedReplay interface {
	Len() int
	Add(t replay.Transition)
	AddWithPriority(t replay.Transition, priority float64)
	AddBatch(ts []replay.Transition, priorities []float64)
	SampleInto(rng *rand.Rand, n int, samples []replay.Transition, indices []int, weights []float64) ([]replay.Transition, []int, []float64)
	UpdatePrioritiesBatch(indices []int, tdErrs []float64)
	Beta() float64
}

var (
	_ PrioritizedReplay = (*replay.Prioritized)(nil)
	_ PrioritizedReplay = (*replay.Sharded)(nil)
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
	}
	return nil
}

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

// State copies the process state vector (for checkpoints).
func (o *OUNoise) State() []float64 { return append([]float64(nil), o.state...) }

// SetState restores a checkpointed process state vector.
func (o *OUNoise) SetState(s []float64) error {
	if len(s) != len(o.state) {
		return errors.New("ddpg: OU noise state dimension mismatch")
	}
	copy(o.state, s)
	return nil
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
// replay buffer.
type Agent struct {
	cfg    Config
	rng    *rand.Rand
	rngSrc *countedSource // rng's source, counted for checkpoint/restore

	Actor        *nn.Network
	Critic       *nn.Network
	actorTarget  *nn.Network
	criticTarget *nn.Network
	actorOpt     *nn.Adam
	criticOpt    *nn.Adam

	noise *OUNoise

	uniform     *replay.Uniform
	prioritized PrioritizedReplay

	learnSteps int
	// scratch buffers to avoid per-step garbage.
	saBuf []float64
	// minibatch scratch, sized on first Learn and reused forever:
	// sample buffers and the row-major matrices fed to the batched
	// network passes.
	batchBuf    []replay.Transition
	idxBuf      []int
	weightBuf   []float64
	bStates     []float64 // BatchSize × StateDim
	bNextStates []float64 // BatchSize × StateDim
	bSA         []float64 // BatchSize × (StateDim+ActionDim)
	bNextSA     []float64 // BatchSize × (StateDim+ActionDim)
	bY          []float64 // BatchSize targets
	bDQ         []float64 // BatchSize dL/dQ
	bDAct       []float64 // BatchSize × ActionDim
	tdErrBuf    []float64 // BatchSize TD errors for priority updates
	// fused-pass scratch (LearnBatch): the regression half and the
	// action-gradient half of the critic pass stacked in one matrix.
	bSA2 []float64 // 2·BatchSize × (StateDim+ActionDim)
	bDQ2 []float64 // 2·BatchSize dL/dQ

	// batched acting scratch (act.go): TDErrorBatch's assembled
	// matrices, grown to the largest flush window seen.
	actNext   []float64 // n × StateDim next states
	actNextSA []float64 // n × (StateDim+ActionDim) target critic input
	actSA     []float64 // n × (StateDim+ActionDim) critic input

	// float32 fast path (learn32.go): enabled by SetFloat32, used by
	// the non-deterministic Parallel/RemoteActors trainer modes.
	f32 bool
	// float32 acting path (act.go): enabled by SetActFloat32 on
	// acting-only agents; routes ActBatch/TDErrorBatch through the f32
	// batch engine.
	actF32      bool
	act32States []float32
	act32NextSA []float32
	act32SA     []float32
	// f32 minibatch scratch, the single-precision mirror of the fused
	// buffers above.
	bStates32     []float32 // BatchSize × StateDim
	bNextStates32 []float32 // BatchSize × StateDim
	bNextSA32     []float32 // BatchSize × (StateDim+ActionDim)
	bY32          []float32 // BatchSize targets
	bDAct32       []float32 // BatchSize × ActionDim
	bSA232        []float32 // 2·BatchSize × (StateDim+ActionDim)
	bDQ232        []float32 // 2·BatchSize dL/dQ
}

// growScratch sizes the minibatch scratch buffers once.
func (a *Agent) growScratch() {
	if a.bStates != nil {
		return
	}
	n, S, A := a.cfg.BatchSize, a.cfg.StateDim, a.cfg.ActionDim
	a.batchBuf = make([]replay.Transition, 0, n)
	if a.prioritized != nil {
		a.idxBuf = make([]int, 0, n)
		a.weightBuf = make([]float64, 0, n)
	}
	a.bStates = make([]float64, n*S)
	a.bNextStates = make([]float64, n*S)
	a.bSA = make([]float64, n*(S+A))
	a.bNextSA = make([]float64, n*(S+A))
	a.bY = make([]float64, n)
	a.bDQ = make([]float64, n)
	a.bDAct = make([]float64, n*A)
	a.tdErrBuf = make([]float64, n)
	a.bSA2 = make([]float64, 2*n*(S+A))
	a.bDQ2 = make([]float64, 2*n)
}

// New builds an agent from a validated configuration.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := newCountedSource(cfg.Seed)
	rng := rand.New(src)
	actorSizes := append([]int{cfg.StateDim}, cfg.Hidden...)
	actorSizes = append(actorSizes, cfg.ActionDim)
	criticSizes := append([]int{cfg.StateDim + cfg.ActionDim}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)

	actor, err := nn.NewMLP(actorSizes, nn.ReLU, nn.Tanh, rng)
	if err != nil {
		return nil, err
	}
	critic, err := nn.NewMLP(criticSizes, nn.ReLU, nn.Linear, rng)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:          cfg,
		rng:          rng,
		rngSrc:       src,
		Actor:        actor,
		Critic:       critic,
		actorTarget:  actor.Clone(),
		criticTarget: critic.Clone(),
		actorOpt:     nn.MustAdam(cfg.ActorLR),
		criticOpt:    nn.MustAdam(cfg.CriticLR),
		noise:        NewOUNoise(cfg.ActionDim, cfg.OUTheta, cfg.OUSigma, rng),
		saBuf:        make([]float64, cfg.StateDim+cfg.ActionDim),
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

// Act computes the policy action for a state; with explore set, OU
// noise is added. The result is clamped to [-1, 1]^ActionDim and is
// freshly allocated.
func (a *Agent) Act(state []float64, explore bool) ([]float64, error) {
	if len(state) != a.cfg.StateDim {
		return nil, fmt.Errorf("ddpg: state dim %d, want %d", len(state), a.cfg.StateDim)
	}
	out := a.Actor.Forward(state)
	action := append([]float64(nil), out...)
	if explore {
		noise := a.noise.Sample()
		for i := range action {
			action[i] += noise[i]
		}
	}
	for i := range action {
		if action[i] < -1 {
			action[i] = -1
		}
		if action[i] > 1 {
			action[i] = 1
		}
	}
	return action, nil
}

// Observe stores a transition in the replay buffer.
func (a *Agent) Observe(t replay.Transition) {
	if a.prioritized != nil {
		a.prioritized.Add(t)
		return
	}
	a.uniform.Add(t)
}

// ObserveWithPriority stores a transition with an Ape-X style
// actor-computed initial priority.
func (a *Agent) ObserveWithPriority(t replay.Transition, priority float64) {
	if a.prioritized != nil {
		a.prioritized.AddWithPriority(t, priority)
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

// SetReplay swaps the prioritized replay implementation — the
// parallel Ape-X trainer installs a sharded buffer before any
// experience flows. Only allowed on a prioritized agent whose buffer
// is still empty, so no experience is silently dropped.
func (a *Agent) SetReplay(buf PrioritizedReplay) error {
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

// Replay exposes the prioritized replay implementation currently
// installed (nil for uniform agents) — introspection for tests and
// monitoring.
func (a *Agent) Replay() PrioritizedReplay { return a.prioritized }

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

// TDError computes the temporal-difference error of a single
// transition under the current networks — Ape-X actors use it for
// initial priorities.
func (a *Agent) TDError(t replay.Transition) float64 {
	target := t.Reward
	if !t.Done {
		nextA := a.actorTarget.Forward(t.NextState)
		q := a.criticTarget.Forward(concat(a.saBuf[:0], t.NextState, nextA))
		target += a.cfg.Gamma * q[0]
	}
	q := a.Critic.Forward(concat(a.saBuf[:0], t.State, t.Action))
	return target - q[0]
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
	var batch []replay.Transition
	var indices []int
	var weights []float64
	if a.prioritized != nil {
		if a.prioritized.Len() < a.cfg.BatchSize {
			return 0
		}
		a.growScratch()
		batch, indices, weights = a.prioritized.SampleInto(
			a.rng, a.cfg.BatchSize, a.batchBuf, a.idxBuf, a.weightBuf)
		a.batchBuf, a.idxBuf, a.weightBuf = batch, indices, weights
	} else {
		if a.uniform.Len() < a.cfg.BatchSize {
			return 0
		}
		a.growScratch()
		batch = a.uniform.SampleInto(a.rng, a.cfg.BatchSize, a.batchBuf)
		a.batchBuf = batch
	}
	return a.learnMinibatch(batch, indices, weights, false)
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
	a.growScratch()
	return a.learnMinibatch(batch, indices, weights, true)
}

// learnMinibatch is the shared DDPG update body. The fused flag
// selects the 2n-row critic pass of LearnBatch; the unfused sequence
// is op-for-op the historical Learn and must stay byte-identical.
func (a *Agent) learnMinibatch(batch []replay.Transition, indices []int, weights []float64, fused bool) float64 {
	if len(batch) == 0 {
		return 0
	}
	if a.f32 {
		// Float32 fast path (learn32.go): both Learn and LearnBatch
		// route here while SetFloat32 is active — the fused structure
		// in single precision.
		return a.learnMinibatchF32(batch, indices, weights)
	}

	n := len(batch)
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A

	// Assemble the minibatch matrices: states, next states, (state,
	// action) pairs, and the state columns of the target critic input
	// (its action columns are filled from the target actor below).
	for i, t := range batch {
		copy(a.bStates[i*S:(i+1)*S], t.State)
		copy(a.bNextStates[i*S:(i+1)*S], t.NextState)
		copy(a.bSA[i*SA:], t.State)
		copy(a.bSA[i*SA+S:(i+1)*SA], t.Action)
		copy(a.bNextSA[i*SA:], t.NextState)
	}

	// Bootstrapped targets y_i = r_i + γ Q'(s', μ'(s')).
	nextA := a.actorTarget.ForwardBatch(a.bNextStates, n)
	for i := 0; i < n; i++ {
		copy(a.bNextSA[i*SA+S:(i+1)*SA], nextA[i*A:(i+1)*A])
	}
	qNext := a.criticTarget.ForwardBatch(a.bNextSA, n)
	for i, t := range batch {
		y := t.Reward
		if !t.Done {
			y += a.cfg.Gamma * qNext[i]
		}
		a.bY[i] = y
	}

	if fused {
		return a.finishFused(batch, indices, weights, n)
	}

	// Critic update: minimize Σ w_i (y_i − Q(s_i, a_i))².
	q := a.Critic.ForwardBatch(a.bSA, n)
	var loss float64
	for i := range batch {
		diff := q[i] - a.bY[i]
		a.tdErrBuf[i] = -diff
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		loss += w * diff * diff
		a.bDQ[i] = w * diff
	}
	a.Critic.ZeroGrad()
	a.Critic.BackwardBatchParams(a.bDQ, n)
	a.Critic.ScaleGrad(1 / float64(n))
	a.criticOpt.Step(a.Critic)
	loss /= float64(n)

	if a.prioritized != nil && indices != nil {
		a.prioritized.UpdatePrioritiesBatch(indices, a.tdErrBuf[:n])
	}

	// Actor update: ascend E[Q(s, μ(s))] — equation 6. Push dQ/da
	// back through the critic and through the actor in one batched
	// pass each; BackwardBatchInput leaves the critic's own gradients
	// untouched, so no ZeroGrad bookkeeping is needed around it.
	actions := a.Actor.ForwardBatch(a.bStates, n)
	for i := 0; i < n; i++ {
		copy(a.bSA[i*SA+S:(i+1)*SA], actions[i*A:(i+1)*A]) // states already in place
	}
	a.Critic.ForwardBatch(a.bSA, n)
	for i := 0; i < n; i++ {
		a.bDQ[i] = -1 // ascend Q
	}
	dInput := a.Critic.BackwardBatchInput(a.bDQ, n)
	for i := 0; i < n; i++ {
		copy(a.bDAct[i*A:(i+1)*A], dInput[i*SA+S:(i+1)*SA])
	}
	a.Actor.ZeroGrad()
	a.Actor.BackwardBatchParams(a.bDAct, n)
	a.Actor.ScaleGrad(1 / float64(n))
	a.actorOpt.Step(a.Actor)

	a.finishTargets()
	return loss
}

// finishFused is the fused critic pass of LearnBatch: one 2n-row
// forward over [regression rows; (s, μ(s)) probe rows] and one
// BackwardBatchSplit that keeps parameter gradients from the first
// half while returning input gradients for the second.
func (a *Agent) finishFused(batch []replay.Transition, indices []int, weights []float64, n int) float64 {
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A

	// Probe actions μ(s) from the online actor; its cached
	// activations feed the actor backward below (the critic passes in
	// between do not disturb them).
	actions := a.Actor.ForwardBatch(a.bStates, n)
	copy(a.bSA2[:n*SA], a.bSA[:n*SA])
	for i := 0; i < n; i++ {
		row := a.bSA2[(n+i)*SA : (n+i+1)*SA]
		copy(row[:S], batch[i].State)
		copy(row[S:], actions[i*A:(i+1)*A])
	}

	q2 := a.Critic.ForwardBatch(a.bSA2, 2*n)
	var loss float64
	for i := 0; i < n; i++ {
		diff := q2[i] - a.bY[i]
		a.tdErrBuf[i] = -diff
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		loss += w * diff * diff
		a.bDQ2[i] = w * diff
		a.bDQ2[n+i] = -1 // ascend Q along the probe rows
	}
	a.Critic.ZeroGrad()
	dInput := a.Critic.BackwardBatchSplit(a.bDQ2, 2*n, n)
	a.Critic.ScaleGrad(1 / float64(n))
	a.criticOpt.Step(a.Critic)
	loss /= float64(n)

	if a.prioritized != nil && indices != nil {
		a.prioritized.UpdatePrioritiesBatch(indices, a.tdErrBuf[:n])
	}

	for i := 0; i < n; i++ {
		copy(a.bDAct[i*A:(i+1)*A], dInput[(n+i)*SA+S:(n+i+1)*SA])
	}
	a.Actor.ZeroGrad()
	a.Actor.BackwardBatchParams(a.bDAct, n)
	a.Actor.ScaleGrad(1 / float64(n))
	a.actorOpt.Step(a.Actor)

	a.finishTargets()
	return loss
}

// finishTargets applies the soft target updates and per-step
// bookkeeping shared by both learn paths.
func (a *Agent) finishTargets() {
	if err := a.actorTarget.SoftUpdate(a.Actor, a.cfg.Tau); err != nil {
		panic(err) // topologies are construction-matched
	}
	if err := a.criticTarget.SoftUpdate(a.Critic, a.cfg.Tau); err != nil {
		panic(err)
	}

	a.learnSteps++
	if a.cfg.NoiseDecay > 0 && a.cfg.NoiseDecay < 1 {
		a.noise.SetSigma(a.noise.Sigma() * a.cfg.NoiseDecay)
	}
}

// LearnSteps reports completed updates.
func (a *Agent) LearnSteps() int { return a.learnSteps }

// NoiseSigma reports the current exploration scale.
func (a *Agent) NoiseSigma() float64 { return a.noise.Sigma() }

// SyncFrom copies another agent's network parameters (Ape-X actors
// pull learner parameters through this).
func (a *Agent) SyncFrom(src *Agent) error {
	if err := a.Actor.CopyParamsFrom(src.Actor); err != nil {
		return err
	}
	if err := a.Critic.CopyParamsFrom(src.Critic); err != nil {
		return err
	}
	if err := a.actorTarget.CopyParamsFrom(src.actorTarget); err != nil {
		return err
	}
	return a.criticTarget.CopyParamsFrom(src.criticTarget)
}

// ActorBytes serializes the actor network for parameter broadcast.
// On the float32 path the trained mirrors are flushed to the f64
// weights first, so broadcasts always carry the current policy.
func (a *Agent) ActorBytes() ([]byte, error) {
	if a.f32 {
		a.Actor.FlushF32()
	}
	return a.Actor.MarshalBinary()
}

// LoadActorBytes replaces the actor's parameters from a broadcast, in
// place; a blob that does not decode or does not match the actor's
// shape leaves the actor untouched. While the f32 acting path is
// active the actor's parameter mirrors are refreshed from the new
// weights, so batched acting never runs on a stale policy.
func (a *Agent) LoadActorBytes(data []byte) error {
	if err := a.Actor.LoadParams(data); err != nil {
		return err
	}
	if a.actF32 {
		a.Actor.EnableF32()
	}
	return nil
}

// concat appends a and b into dst and returns it.
func concat(dst, a, b []float64) []float64 {
	dst = append(dst, a...)
	dst = append(dst, b...)
	return dst
}

// Greedy evaluates the deterministic policy μ(s) without exploration,
// returning a fresh slice. Unlike Act it never errors: mismatched
// states panic (programming bug).
func (a *Agent) Greedy(state []float64) []float64 {
	if len(state) != a.cfg.StateDim {
		panic("ddpg: state dimension mismatch")
	}
	out := a.Actor.Forward(state)
	action := append([]float64(nil), out...)
	for i := range action {
		action[i] = math.Max(-1, math.Min(1, action[i]))
	}
	return action
}
