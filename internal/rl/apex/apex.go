package apex

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
)

// Experience is one transition plus its actor-side initial priority,
// the unit pushed to the central replay.
type Experience struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
	Priority  float64
}

// LearnerAPI is the surface actors need from the central learner.
// Two implementations satisfy it: the in-process Learner and the
// reconnecting RPC client RemoteLearner that actor processes use.
type LearnerAPI interface {
	// PushExperience appends a batch to the central replay.
	PushExperience(batch []Experience) error
	// PullParams returns the current parameter version and, when it is
	// newer than haveVersion, the actor network's parameter frame
	// (nil bytes otherwise). The bytes may be shared with other pullers
	// and must not be written. They are valid until the caller hands
	// them to ReleaseParams and are never rewritten while held.
	PullParams(haveVersion int) (version int, actorBytes []byte, err error)
	// ReleaseParams hands back bytes PullParams returned, once, after
	// the caller's last read of them.
	ReleaseParams(actorBytes []byte)
	// RetainsExperience reports whether pushed batches' float slices
	// stay referenced after PushExperience returns. The in-process
	// Learner aliases them into the replay buffer forever; RemoteLearner
	// serializes them onto the wire and retains nothing.
	// Actors use this to decide whether flushed arena chunks can be
	// recycled (see txnArena).
	RetainsExperience() bool
}

// Learner is the central learner process of Algorithm 3. The mutex
// guards only the parameter broadcast (version, frame, lends); experience
// ingest goes straight to the goroutine-safe replay buffer, so actors
// pushing chunks never wait behind a learning step.
type Learner struct {
	mu      sync.Mutex
	agent   *ddpg.Agent
	version int
	// paramCache is the current version's parameter frame, and lent
	// counts the pulls that returned it and have not released it.
	// PullParams hands the same bytes to every puller, who reads them
	// after mu is released until it releases them, so refreshParamCache
	// re-encodes into this buffer only when lent is 0 and otherwise
	// leaves it to its holders and starts a new one: a frame is never
	// rewritten while held.
	paramCache []byte
	lent       int
	pushes     atomic.Int64
	received   atomic.Int64
	// ingestCh carries a (coalesced) wake-up per PushExperience so the
	// pacing gate (pipeline.go) can block on ingest instead of polling
	// the received counter.
	ingestCh chan struct{}
}

// NewLearner wraps a DDPG agent (which owns the central prioritized
// replay) as the learner.
func NewLearner(agent *ddpg.Agent) (*Learner, error) {
	if agent == nil {
		return nil, errors.New("apex: nil agent")
	}
	if !agent.Config().Prioritized {
		return nil, errors.New("apex: learner requires prioritized replay")
	}
	l := &Learner{agent: agent, version: 1, ingestCh: make(chan struct{}, 1)}
	l.refreshParamCache()
	return l, nil
}

// Agent exposes the learner's agent (for evaluation after training).
func (l *Learner) Agent() *ddpg.Agent { return l.agent }

// pushScratch recycles the conversion buffers PushExperience uses to
// turn Experience chunks into replay transitions plus priorities, so
// the steady-state ingest path allocates nothing.
type pushScratch struct {
	ts []replay.Transition
	ps []float64
}

var pushPool = sync.Pool{New: func() any { return &pushScratch{} }}

// PushExperience implements LearnerAPI. The whole chunk lands in the
// replay buffer through one batched call — a single stripe-lock
// acquire — and the learner mutex is never taken, so concurrent pushes
// neither serialize each other nor stall behind a learning step.
func (l *Learner) PushExperience(batch []Experience) error {
	sc := pushPool.Get().(*pushScratch)
	sc.ts, sc.ps = sc.ts[:0], sc.ps[:0]
	for i := range batch {
		e := &batch[i]
		sc.ts = append(sc.ts, replay.Transition{
			State:     e.State,
			Action:    e.Action,
			Reward:    e.Reward,
			NextState: e.NextState,
			Done:      e.Done,
		})
		sc.ps = append(sc.ps, e.Priority)
	}
	l.agent.ObserveBatch(sc.ts, sc.ps)
	pushPool.Put(sc)
	l.pushes.Add(1)
	l.received.Add(int64(len(batch)))
	select { // coalesced ingest wake-up for the pacing gate
	case l.ingestCh <- struct{}{}:
	default:
	}
	return nil
}

// RetainsExperience implements LearnerAPI: the replay buffer aliases
// pushed slices (replay.Transition stores them without copying), so
// actors must not reuse flushed chunks.
func (l *Learner) RetainsExperience() bool { return true }

// PullParams implements LearnerAPI, counting a lend of the frame
// whenever it returns it.
func (l *Learner) PullParams(haveVersion int) (int, []byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if haveVersion >= l.version {
		return l.version, nil, nil
	}
	l.lent++
	return l.version, l.paramCache, nil
}

// ReleaseParams implements LearnerAPI. Only a release of the current
// frame counts, and never below zero: a frame that was lent when the
// next version was published is already its holders' alone.
func (l *Learner) ReleaseParams(actorBytes []byte) {
	l.mu.Lock()
	if l.lent > 0 && len(actorBytes) > 0 && &actorBytes[0] == &l.paramCache[0] {
		l.lent--
	}
	l.mu.Unlock()
}

// LearnStep runs one DDPG update on a minibatch the agent samples
// itself (the round-robin reference loop's path) and returns the critic
// loss. Like LearnBatchStep it holds the learner mutex only to publish:
// the networks are touched by the one goroutine that runs updates, and
// the parameter broadcast is the sole state actors read.
func (l *Learner) LearnStep(versionEvery int) float64 {
	before := l.agent.LearnSteps()
	loss := l.agent.Learn()
	l.publish(before, versionEvery)
	return loss
}

// LearnBatchStep runs one update on a prefetched minibatch (the
// concurrent pipeline's path).
func (l *Learner) LearnBatchStep(samples []replay.Transition, indices []int, weights []float64, versionEvery int) float64 {
	before := l.agent.LearnSteps()
	loss := l.agent.LearnBatch(samples, indices, weights)
	l.publish(before, versionEvery)
	return loss
}

// publish bumps the parameter version and encodes its frame every
// versionEvery completed updates. A call that could not update (replay
// below one batch) leaves the version alone, so actors are not
// rebroadcast identical parameters.
func (l *Learner) publish(before, versionEvery int) {
	steps := l.agent.LearnSteps()
	if steps == before || steps%max(versionEvery, 1) != 0 {
		return
	}
	l.mu.Lock()
	l.version++
	l.refreshParamCache()
	l.mu.Unlock()
}

// refreshParamCache encodes the actor's frame in place when no pull
// holds the current one, and into a new buffer otherwise — the only
// allocation a version can cost. Caller holds mu (or is the
// constructor).
func (l *Learner) refreshParamCache() {
	buf := l.paramCache[:0]
	if l.lent > 0 {
		buf, l.lent = nil, 0
	}
	l.paramCache = l.agent.AppendActorBytes(buf)
}

// Stats reports how much experience the learner has received.
func (l *Learner) Stats() (pushes, transitions int) {
	return int(l.pushes.Load()), int(l.received.Load())
}

// Actor is one NF controller (Algorithm 3's NF_CONTROLLER), the only
// type that acts and stages experience: it acts in its own environment
// with its own exploration intensity on a local inference view of the
// policy, keeps the arena-backed window of transitions not yet pushed
// with their lazily settled priorities, and exchanges data with the
// learner. Every scheduler steps this type — the round-robin loop and
// each cmd/apexactor process.
//
// Staging a transition allocates nothing: its rows live in a pooled
// arena (arena.go) handed off at Flush granularity, and TD-error
// priorities are settled in one ddpg.View.TDErrorBatch pass per flush
// window (package doc, "Actor stepping", has why the deferral is
// value-exact).
type Actor struct {
	ID      int
	env     env.Stepper
	view    *ddpg.View // local acting view: policy, frozen priority nets, noise
	version int        // parameter version last pulled

	// arena rows back local's slices, pend mirrors local as
	// replay.Transitions for TDErrorBatch, settled is the prefix of
	// local whose priorities are final.
	arena   *txnArena
	local   []Experience
	pend    []replay.Transition
	tdBuf   []float64
	settled int
	verify  bool

	// Steps between pushes and between parameter pulls.
	pushEvery, syncEvery int

	state  []float64
	obsBuf []float64 // reused next-observation buffer for StepInto
	steps  int
}

// ActorConfig builds one actor.
type ActorConfig struct {
	ID int
	// Env is the actor's private environment instance (single-node
	// Env or multi-node ClusterEnv — anything satisfying Stepper).
	Env env.Stepper
	// AgentConfig shapes the local view (ddpg.NewView); exploration
	// sigma is typically varied per actor (Ape-X's ε_i ladder).
	AgentConfig ddpg.Config
	// PushEvery is the local-buffer flush interval in steps
	// (Algorithm 3 line 8 "periodically").
	PushEvery int
	// SyncEvery is the parameter-pull interval in steps
	// (Algorithm 3 lines 2 and 9).
	SyncEvery int
	// VerifyPriorities cross-checks every batched TD-error priority
	// against the scalar ddpg.TDError path at settlement time and
	// fails the actor on any bit difference — the self-check the
	// remote e2e test switches on (cmd/apexactor -verifyprio). Only
	// meaningful on the f64 path.
	VerifyPriorities bool
}

// NewActor builds an actor; its staging window is sized for PushEvery
// transitions per push.
func NewActor(cfg ActorConfig) (*Actor, error) {
	if cfg.Env == nil {
		return nil, errors.New("apex: actor needs an environment")
	}
	if cfg.PushEvery <= 0 || cfg.SyncEvery <= 0 {
		return nil, errors.New("apex: PushEvery and SyncEvery must be positive")
	}
	view, err := ddpg.NewView(cfg.AgentConfig)
	if err != nil {
		return nil, err
	}
	return &Actor{
		ID:        cfg.ID,
		env:       cfg.Env,
		view:      view,
		arena:     newTxnArena(cfg.Env.StateDim(), cfg.Env.ActionDim(), cfg.PushEvery),
		local:     make([]Experience, 0, cfg.PushEvery),
		pend:      make([]replay.Transition, 0, cfg.PushEvery),
		verify:    cfg.VerifyPriorities,
		pushEvery: cfg.PushEvery,
		syncEvery: cfg.SyncEvery,
		state:     cfg.Env.Reset(cfg.AgentConfig.Seed),
		obsBuf:    make([]float64, cfg.Env.StateDim()),
	}, nil
}

// Env exposes the actor's environment (for snapshotting knobs).
func (a *Actor) Env() env.Stepper { return a.env }

// Step runs one acting step against the learner: act, observe,
// buffer, and periodically push/pull. It returns the step's reward
// and measurement.
//
// Steady state allocates nothing: the action is computed straight into
// its arena row (ddpg.View.ActInto), the state copies land in arena rows,
// and the priority is settled in the flush-window TDErrorBatch.
func (a *Actor) Step(learner LearnerAPI) (float64, perfmodel.Result, error) {
	stateRow, actionRow, nextRow := a.arena.next()
	copy(stateRow, a.state)
	if err := a.view.ActInto(a.state, true, actionRow); err != nil {
		return 0, perfmodel.Result{}, err
	}
	// StepInto reuses the actor's observation buffer; the transition
	// keeps arena copies, which the buffer swap below cannot
	// invalidate.
	reward, info, err := a.env.StepInto(actionRow, a.obsBuf)
	if err != nil {
		return 0, perfmodel.Result{}, err
	}
	copy(nextRow, a.obsBuf)
	a.local = append(a.local, Experience{State: stateRow, Action: actionRow, Reward: reward, NextState: nextRow})
	a.pend = append(a.pend, replay.Transition{State: stateRow, Action: actionRow, Reward: reward, NextState: nextRow})
	a.state, a.obsBuf = a.obsBuf, a.state
	a.steps++
	if a.steps%a.pushEvery == 0 {
		if err := a.Flush(learner); err != nil {
			return reward, info, err
		}
	}
	if a.steps%a.syncEvery == 0 {
		return reward, info, a.SyncParams(learner)
	}
	return reward, info, nil
}

// Steps reports how many environment steps the actor has taken.
func (a *Actor) Steps() int { return a.steps }

// settlePriorities computes the TD-error priorities of every
// still-unsettled buffered transition in one batched pass. The
// priority networks are frozen between parameter loads (broadcasts
// never carry them at all), so the values are bit-identical to the
// per-step scalar computation — verify checks exactly that.
func (a *Actor) settlePriorities() error {
	if a.settled == len(a.local) {
		return nil
	}
	fresh := a.pend[a.settled:]
	a.tdBuf = a.view.TDErrorBatch(fresh, a.tdBuf)
	for i := range fresh {
		prio := math.Abs(a.tdBuf[i])
		if a.verify {
			if want := math.Abs(a.view.TDError(fresh[i])); prio != want {
				return fmt.Errorf("apex: actor %d: batched priority %v != scalar %v at row %d of the flush window",
					a.ID, prio, want, a.settled+i)
			}
		}
		a.local[a.settled+i].Priority = prio
	}
	a.settled = len(a.local)
	return nil
}

// Flush settles priorities and pushes any locally buffered experience
// to the learner: at the PushEvery cadence, and once more when a run
// ends between boundaries, so no transitions are lost. Arena chunks are
// recycled only when the learner does not retain pushed slices.
func (a *Actor) Flush(learner LearnerAPI) error {
	if len(a.local) == 0 {
		return nil
	}
	if err := a.settlePriorities(); err != nil {
		return err
	}
	if err := learner.PushExperience(a.local); err != nil {
		return fmt.Errorf("apex: push: %w", err)
	}
	a.arena.release(learner.RetainsExperience())
	a.local = a.local[:0]
	a.pend = a.pend[:0]
	a.settled = 0
	return nil
}

// SyncParams pulls the learner's parameters when newer than the ones
// held: at the SyncEvery cadence, and at a remote actor's startup so it
// acts on the broadcast policy, not its own fresh random weights.
// Pending priorities are settled first, keeping the
// settle-before-any-parameter-load invariant even though today's
// broadcasts only ever replace the policy network.
func (a *Actor) SyncParams(learner LearnerAPI) error {
	if err := a.settlePriorities(); err != nil {
		return err
	}
	v, data, err := learner.PullParams(a.version)
	if err != nil {
		return fmt.Errorf("apex: pull: %w", err)
	}
	if data != nil {
		err := a.view.LoadActorBytes(data)
		learner.ReleaseParams(data)
		if err != nil {
			return fmt.Errorf("apex: load params: %w", err)
		}
	}
	a.version = v
	return nil
}
