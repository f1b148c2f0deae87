package apex

import (
	"errors"
	"fmt"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
)

// Snapshot is one point of a training-progress curve — the quantities
// the paper plots in Figures 6–8: achieved throughput, energy,
// efficiency, and the knob trajectory (CPU usage, core frequency,
// LLC allocation, DMA buffer size, batch size).
type Snapshot struct {
	Episode        int
	ThroughputGbps float64
	EnergyJ        float64
	Efficiency     float64
	Reward         float64
	CPUPercent     float64
	FreqGHz        float64
	LLCPercent     float64
	DMAMB          float64
	Batch          float64
}

// SnapshotOf summarizes an environment's current knobs and result.
func SnapshotOf(episode int, e env.Stepper, res perfmodel.Result, reward float64) Snapshot {
	ks := e.Knobs()
	var freq, llc, dma, batch float64
	for _, k := range ks {
		freq += k.FreqGHz
		llc += k.LLCFraction
		dma += float64(k.DMABytes)
		batch += float64(k.Batch)
	}
	n := float64(len(ks))
	return Snapshot{
		Episode:        episode,
		ThroughputGbps: res.ThroughputGbps,
		EnergyJ:        res.EnergyJoules,
		Efficiency:     res.Efficiency,
		Reward:         reward,
		CPUPercent:     res.CPUPercent,
		FreqGHz:        freq / n,
		LLCPercent:     llc / n * 100,
		DMAMB:          dma / n / (1 << 20),
		Batch:          batch / n,
	}
}

// TrainerConfig sizes a training run.
type TrainerConfig struct {
	// Actors is the worker count (the paper distributes actors over
	// the cluster; in-process they interleave round-robin for
	// determinism).
	Actors int
	// TotalSteps is the total environment steps across all actors
	// (the paper's "episodes").
	TotalSteps int
	// LearnPerStep is how many learner updates run per actor step.
	LearnPerStep int
	// WarmupSteps delays learning until the replay has data.
	WarmupSteps int
	// PushEvery / SyncEvery configure the actors.
	PushEvery, SyncEvery int
	// VersionEvery bumps the broadcast parameter version every N
	// learner updates.
	VersionEvery int
	// BaseSigma is actor 0's OU noise; each additional actor gets
	// progressively more exploration (Ape-X's per-actor epsilon).
	BaseSigma float64
	// SamplesPerInsert, when positive, adds a ratio cap to the
	// concurrent pipeline's pacing rule: at most that many replay
	// samples are consumed per inserted transition, so a fast learner
	// blocks for fresh experience instead of replaying a stale buffer
	// (the ratio knob of Reverb-style samplers). Zero (the default)
	// leaves only the LearnPerStep cadence and the update budget is
	// spent exactly. Round-robin ignores it.
	SamplesPerInsert float64
	// Parallel selects the concurrent pipeline over its in-process
	// transport — a driver goroutine stepping the same actors round-robin
	// steps, in the same rank order, while the sampler/learner runs
	// batched updates over a lock-striped replay, the architecture of
	// Horgan et al. Round-robin remains the default: it is reproducible,
	// which tests and figures rely on.
	Parallel bool
	// RemoteActors selects the pipeline's multi-process transport (the
	// paper's six-node deployment): the trainer serves the learner over
	// rpcutil and RemoteActors actor processes connect as RPC clients,
	// each with its own environment and exploration intensity.
	// Actors/StepperFactory/Parallel are ignored; RemoteSpec is
	// required. Not deterministic; the figure harness keeps round-robin.
	RemoteActors int
	// SpawnRemote, when non-empty, is the argv prefix the trainer
	// execs to launch each actor process (typically cmd/apexactor). It
	// appends "-learner ADDR -rank R -steps N" and writes the
	// normalized RemoteSpec JSON to the child's stdin. Empty means
	// actors are launched externally and connect to ListenAddr.
	SpawnRemote []string
	// ListenAddr is the learner's RPC bind address in remote mode
	// ("" = 127.0.0.1 on an ephemeral port, the right choice when
	// SpawnRemote runs actors on this host).
	ListenAddr string
	// RemoteSpec tells remote actor processes how to rebuild the
	// environment and local network; the trainer normalizes cadence,
	// network shape and seeds from this config before serving it.
	RemoteSpec *ActorSpec
	// AdvertiseAddr, when non-empty, is the learner address handed to
	// spawned actor processes instead of the actual listen address —
	// the hook that routes actor traffic through a proxy (the chaos
	// tests put a faultrpc.FaultProxy here). External fleets ignore it.
	AdvertiseAddr string
	// CheckpointPath, when non-empty, makes Run write an atomic
	// training checkpoint (see WriteCheckpoint) when the round
	// completes and, in the concurrent modes (Parallel, remote), every
	// CheckpointEvery learner updates on the way, so a killed trainer
	// resumes mid-budget via Resume. CheckpointReplay additionally
	// snapshots the replay buffer into each checkpoint — required for
	// bit-exact update parity after restore, at the cost of checkpoint
	// size.
	CheckpointPath   string
	CheckpointEvery  int
	CheckpointReplay bool
	// MaxActorRestarts bounds how many times the trainer respawns one
	// crashed spawned-actor rank (original sigma/seed ladder rung,
	// jittered exponential backoff). Zero: the first crash fails the round.
	MaxActorRestarts int
	// ActorRestartBackoff is the initial respawn delay, doubling per
	// restart of the same rank (default 250ms when zero).
	ActorRestartBackoff time.Duration
	// DrainTimeout bounds how long drain waits for a spawned fleet
	// after the last push heartbeat before killing the stragglers, so
	// a wedged actor cannot hang the round. Zero waits indefinitely.
	DrainTimeout time.Duration
	// StepperFactory builds one environment per actor (distinct
	// seeds): *env.Env for the paper's single host, *env.ClusterEnv
	// for a multi-node topology. Round-robin and Parallel step either
	// through the same Actor.
	StepperFactory func(actorID int) (env.Stepper, error)
	// AgentConfig templates the learner and actor networks; state
	// and action dims are filled from the environment.
	AgentConfig ddpg.Config
}

// DefaultTrainerConfig returns a configuration matched to the
// GreenNFV environment: small networks and four actors.
func DefaultTrainerConfig(totalSteps int) TrainerConfig {
	return TrainerConfig{
		Actors:       4,
		TotalSteps:   totalSteps,
		LearnPerStep: 1,
		WarmupSteps:  64,
		PushEvery:    8,
		SyncEvery:    16,
		VersionEvery: 8,
		BaseSigma:    0.3,
		// Supervision default: a crashed actor rank gets two respawns
		// before the round is declared failed.
		MaxActorRestarts:    2,
		ActorRestartBackoff: 250 * time.Millisecond,
	}
}

// Trainer orchestrates an Ape-X run: the round-robin reference loop,
// or the concurrent pipeline fed by in-process actors (Parallel) or
// remote actor processes (RemoteActors).
type Trainer struct {
	cfg     TrainerConfig
	learner *Learner
	actors  []*Actor
	// Snapshots is the recorded training curve. Remote mode records
	// none: actor environments live in other processes.
	Snapshots   []Snapshot
	steps       int
	remoteStats map[int]ActorStats
	// Checkpoint/resume state (checkpoint.go).
	resumePath     string
	resumedUpdates int
}

// NewTrainer wires the learner and actors.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	remote := cfg.RemoteActors > 0
	if !remote && cfg.Actors <= 0 {
		return nil, errors.New("apex: need at least one actor")
	}
	if cfg.TotalSteps <= 0 {
		return nil, errors.New("apex: TotalSteps must be positive")
	}
	factory := cfg.StepperFactory
	if remote {
		if cfg.RemoteSpec == nil {
			return nil, errors.New("apex: remote mode needs a RemoteSpec")
		}
		// The spec is the single source of truth in remote mode: the
		// learner's dimension probe must come from the env construction
		// the actor processes use, or network shapes could silently
		// diverge. A caller-supplied StepperFactory is ignored.
		factory = func(actorID int) (env.Stepper, error) { return cfg.RemoteSpec.BuildEnv(actorID) }
	}
	if factory == nil {
		return nil, errors.New("apex: need an environment factory")
	}
	probe, err := factory(0)
	if err != nil {
		return nil, err
	}
	agentCfg := cfg.AgentConfig
	agentCfg.StateDim, agentCfg.ActionDim = probe.StateDim(), probe.ActionDim()
	agentCfg.Prioritized = true
	learnerAgent, err := ddpg.New(agentCfg)
	if err != nil {
		return nil, err
	}
	learner, err := NewLearner(learnerAgent)
	if err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, learner: learner, resumedUpdates: -1}
	if remote {
		// Normalize a private copy of the spec so actor processes
		// reconstruct networks and cadence that match this learner.
		spec := *cfg.RemoteSpec
		normalizeSpec(&spec, t.cfg, agentCfg)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if spec.PushEvery <= 0 || spec.SyncEvery <= 0 {
			return nil, fmt.Errorf("apex: spec needs positive PushEvery/SyncEvery (got %d/%d)", spec.PushEvery, spec.SyncEvery)
		}
		t.cfg.RemoteSpec = &spec
		return t, nil
	}
	for i := 0; i < cfg.Actors; i++ {
		e := probe
		if i > 0 {
			e, err = factory(i)
			if err != nil {
				return nil, err
			}
		}
		actor, err := NewActor(ActorConfig{
			ID: i, Env: e, AgentConfig: ladderRung(agentCfg, cfg.BaseSigma, i),
			PushEvery: cfg.PushEvery, SyncEvery: cfg.SyncEvery,
		})
		if err != nil {
			return nil, err
		}
		t.actors = append(t.actors, actor)
	}
	return t, nil
}

// ladderRung puts an agent template on rung rank of the Ape-X
// exploration ladder: a private seed (+101 per rank) and OU noise that
// grows with rank, sigma = baseSigma·(1 + rank/2), scaled
// unconditionally — a zero baseSigma means greedy actors. Every actor
// of every mode is built through here.
func ladderRung(cfg ddpg.Config, baseSigma float64, rank int) ddpg.Config {
	cfg.Seed += int64(rank) * 101
	cfg.OUSigma = baseSigma * (1 + 0.5*float64(rank))
	return cfg
}

// stepShare is rank's part of total environment steps split over n
// actors: total/n each, the first total%n ranks taking one more.
func stepShare(total, n, rank int) int {
	share := total / n
	if rank < total%n {
		share++
	}
	return share
}

// Learner exposes the central learner.
func (t *Trainer) Learner() *Learner { return t.learner }

// Actors exposes the actor pool.
func (t *Trainer) Actors() []*Actor { return t.actors }

// Run executes the configured number of steps — in the deterministic
// round-robin reference loop (default, snapshots from actor 0), or in
// the concurrent pipeline over its in-process (cfg.Parallel) or
// multi-process (cfg.RemoteActors) transport — and, with CheckpointPath
// set, writes the completion checkpoint of a round that succeeded. A
// round that failed leaves the last interval checkpoint in place.
func (t *Trainer) Run() error {
	if t.cfg.CheckpointPath != "" {
		// A run killed mid-write may have left checkpoint temp files;
		// the atomic rename protocol makes them garbage, so clear them.
		if _, err := atomicio.Sweep(t.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("apex: sweep checkpoint temps: %w", err)
		}
	}
	var err error
	switch {
	case t.cfg.RemoteActors > 0:
		err = t.runPipeline(t.serveFleet)
	case t.cfg.Parallel:
		err = t.runPipeline(t.driveActors)
	default:
		err = t.runRoundRobin()
	}
	if err != nil || t.cfg.CheckpointPath == "" {
		return err
	}
	return t.Checkpoint(t.cfg.CheckpointPath)
}

// RemoteActorStats returns the learner-side per-actor records of the
// last remote run (rank → stats); nil for in-process runs.
func (t *Trainer) RemoteActorStats() map[int]ActorStats { return t.remoteStats }

// runRoundRobin interleaves acting and learning single-threaded —
// deterministic, which suits both tests and the figure harness: after
// every post-warm-up step it makes LearnPerStep LearnStep attempts.
func (t *Trainer) runRoundRobin() error {
	if err := t.applyResume(); err != nil {
		return err
	}
	return t.stepActors(t.steps, t.cfg.TotalSteps, func(n int) {
		t.steps = n
		if n > t.cfg.WarmupSteps {
			for l := 0; l < t.cfg.LearnPerStep; l++ {
				t.learner.LearnStep(t.cfg.VersionEvery)
			}
		}
	})
}

// stepActors is the one stepping loop of the in-process modes: it takes
// environment steps from+1 … to, stepping the actors in rank order
// (every pass starts at actor 0, a resumed run's first too), calls
// afterStep with the count n once step n is taken, and records actor 0's
// latest measurement as a snapshot whenever n is a multiple of
// max(TotalSteps/40, 1): forty points on the training curve (the paper
// samples every 2000 episodes). What runs between two steps is the
// caller's: round-robin learns there; the concurrent pipeline's driver
// (parallel.go) does nothing and leaves learning to the other goroutine.
func (t *Trainer) stepActors(from, to int, afterStep func(n int)) error {
	var last0 perfmodel.Result
	var lastR0 float64
	every := max(t.cfg.TotalSteps/40, 1)
	for n := from; n < to; {
		for _, actor := range t.actors {
			if n >= to {
				break
			}
			reward, info, err := actor.Step(t.learner)
			if err != nil {
				return fmt.Errorf("apex: actor %d: %w", actor.ID, err)
			}
			if actor.ID == 0 {
				last0, lastR0 = info, reward
			}
			n++
			afterStep(n)
			if n%every == 0 {
				t.Snapshots = append(t.Snapshots,
					SnapshotOf(n, t.actors[0].Env(), last0, lastR0))
			}
		}
	}
	return nil
}

// GreedyEval runs the learned deterministic policy on a fresh
// environment for a few settling steps and returns the final
// measurement — the paper's periodic "testing" of the trained model.
func (t *Trainer) GreedyEval(e env.Stepper, settle int) (perfmodel.Result, error) {
	state := e.Reset(9999)
	action := make([]float64, e.ActionDim())
	var last perfmodel.Result
	for i := 0; i < max(settle, 1); i++ {
		if err := t.learner.Agent().ActInto(state, false, action); err != nil {
			return perfmodel.Result{}, err
		}
		_, info, err := e.StepInto(action, state)
		if err != nil {
			return perfmodel.Result{}, err
		}
		last = info
	}
	return last, nil
}
