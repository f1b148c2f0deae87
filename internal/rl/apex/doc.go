// Package apex implements the distributed learning architecture of
// Horgan et al. ("Distributed Prioritized Experience Replay") that
// GreenNFV layers on top of DDPG (paper §4.3.2, Algorithm 3):
// NF-controller actors generate experience under the current policy,
// attach locally computed TD priorities, and push batches to a
// central learner; the learner samples the shared prioritized replay,
// updates the networks, and periodically broadcasts fresh parameters
// back to the actors.
//
// # Paper mapping
//
// Algorithm 3 (NF_CONTROLLER actors + central learner) and the
// six-node deployment of the paper's evaluation: NF controllers on
// the chain-hosting servers feed one central learner. The training
// curves of Figures 6–8 come from Trainer runs.
//
// # Training modes
//
// There is one actor type — Actor: act, stage experience with a local
// priority, push, pull — and two schedulers of it:
//
//   - Round-robin (default): Trainer.runRoundRobin steps the actors in
//     rank order on one goroutine, with one LearnStep attempt per
//     post-warm-up step in between. Deterministic given the seeds — the
//     loop behind every recorded figure; its outputs are byte-diffed
//     across PRs and TestTrainerFingerprint hashes whole runs of it.
//   - Remote (TrainerConfig.RemoteActors): the paper's multi-node
//     split. Each cmd/apexactor process steps one Actor
//     (RunRemoteActor). The learner is served over rpcutil (rpc.go:
//     LearnerService's Register, Push and Pull as typed handlers,
//     rpcutil.Method, so no call runs reflection) to
//     the processes (spawned and supervised via SpawnRemote or started
//     externally against ListenAddr; remote.go), which rebuild their
//     environments from a JSON ActorSpec and talk through a
//     reconnecting RemoteLearner.
//
// The remote fleet feeds the one concurrent pipeline (pipeline.go): a
// sampler prefetches minibatches with its own RNG from the replay — the
// agent's own one-stripe prioritized buffer, the one round-robin trains
// on, at every core count (internal/rl/replay) — under the pacing rule
// below while the learner goroutine runs batched updates and writes
// interval checkpoints. NOT deterministic in what it learns. The fleet is the pipeline's one
// production transport; its tests feed it from an in-process test
// transport that steps the trainer's own actors
// (TestPipelineSpendsBudget, TestSamplesPerInsertPacesLearner).
//
// Both modes run one update, ddpg's one body (round-robin through
// Agent.Learn, the pipeline through Agent.LearnBatch on its prefetched
// minibatch): the modes differ only in who samples and when. Both spend
// the same learner-update budget (LearnPerStep × post-warmup steps,
// counted on from the restored update count after a Resume), so they
// are comparable runs of one algorithm. The one difference in budget:
// round-robin counts LearnStep attempts, the pipeline completed
// updates. They diverge only while the replay holds less than one
// batch after warm-up — round-robin's attempts are then no-ops it
// cannot take back without moving every recorded figure, where the
// pipeline's sampler simply waits for the batch.
//
// A trainer is given its environments one way:
// TrainerConfig.StepperFactory builds an env.Stepper per actor —
// *env.Env for the paper's single host, *env.ClusterEnv for a
// multi-node topology (actor networks are sized from the probe's
// StateDim/ActionDim, so the placement head needs nothing special).
// Round-robin takes either; Remote ignores the factory and builds
// *env.Env from RemoteSpec on both sides of the wire, so cluster
// environments train round-robin only. ActorSpec is also the node
// spec of the whole repository: its flows are env.FlowLoad values, and
// ActorSpec.EnvConfig is the one mapping from a spec to the
// single-host env.Config, behind BuildEnv, greennfv.System's
// environments and the figures' (internal/experiments). Every actor of every mode sits on its rung of
// one exploration ladder (ladderRung: seed + 101·rank, sigma =
// BaseSigma·(1 + rank/2)).
//
// # Concurrency and determinism
//
// The Learner's experience ingest (PushExperience) is lock-free with
// pooled conversion scratch — concurrent pushes neither serialize
// each other nor stall behind a learning step; its mutex guards only
// the parameter broadcast (version + the current frame).
// One goroutine runs updates and checkpoints (the caller of
// LearnStep, or the pipeline's learner). Actors are single-threaded
// and own their environments. The RPC service is goroutine-safe (the
// server calls it from one goroutine per actor connection);
// per-actor connection lifecycle (registration, push stats, drain)
// lives in LearnerService. Training without remote actors is
// round-robin, deterministic given its seeds; tests and figures rely
// on it.
//
// # Parameter broadcast
//
// Algorithm 3's actors only act, and "periodically" take the learner's
// parameters. Every VersionEvery completed updates the learner
// publishes a version: ddpg.Agent.AppendActorBytes encodes the policy
// network as one fixed-layout parameter frame (internal/nn, "Parameter
// frame"), under the learner's mutex. PullParams hands the same bytes
// to every puller, to be read outside the mutex, and counts the lend;
// ReleaseParams hands them back. A frame is valid until its puller
// releases it and is never rewritten while held: the learner encodes a
// version into the last one's buffer only when every pull of it has
// been released, and into a new buffer otherwise, which leaves the held
// frame to its holders (their later releases of it count for nothing,
// and no release takes the count below zero). The round-robin actors
// copy a frame straight into their live network
// (ddpg.View.LoadActorBytes: validated against that network first,
// zero allocations) and release it at once, so a round-robin version
// costs no allocation. The RPC handler replies with a
// PullReply, laid out as the version followed by the frame's bytes
// (rpc.go) and encoded after the handler returns, so the handler never
// releases the frame: the version after one a remote actor pulled
// costs one new frame. A RemoteLearner copies the bytes out of the
// connection's read buffer (PullReply.ReadWire), so its ReleaseParams
// does nothing, and its actor does the same load. One codec serves both
// schedulers and the saved policy file; a pull that finds no
// newer version is a version compare. TestPublishRecyclesReleasedFrame,
// TestSyncParamsReleasesItsPull, TestReleaseCountsOnlyTheCurrentFrame,
// TestConcurrentPullersSeeTheirVersion, TestSyncParamsAllocatesNothing
// and TestPublishedFrameIsImmutable pin the costs and the lifetime
// rule. A fleet that mixes builds from before and after the laid-out messages
// fails at its first call: an older actor's Register is a gob body
// where the learner expects a layout, and a newer actor's a layout
// where an older learner expects gob; either learner refuses it by
// body kind ("undecodable arguments"), an error the actor does not
// retry, so it exits. A trainer checkpoint under any magic but
// GNFVCKP2 fails the resumed run with atomicio's refusal, which names
// the magic it found.
//
// The central replay is the learner's alone. An actor holds a
// ddpg.View — the policy, the frozen priority networks and its noise,
// all inference-only — and no replay, optimizer or gradient buffer;
// the learner's replay grows with the run (internal/rl/replay).
//
// # Actor stepping: arena, batched priorities, verification
//
// Actor.Step is the one acting step of every scheduler and is
// zero-allocation in steady state. Each PushEvery window's
// transitions live in one flat
// txnArena chunk (arena.go) instead of per-step slices; priorities
// are settled lazily at Flush/SyncParams time with one
// ddpg.View.TDErrorBatch call over the window — bit-identical to eager
// scalar TDError because the priority nets are untouched by
// parameter broadcasts (see internal/rl/ddpg doc). What happens to
// the chunk after PushExperience is the learner's call:
// LearnerAPI.RetainsExperience reports whether the endpoint keeps
// aliases of the pushed slices (the in-process Learner does;
// RemoteLearner encodes the experience as replay rows inside the call
// and does not), and
// the arena recycles the chunk through a free list only when it may.
// BenchmarkActorStep and TestActorStepAllocGate pin the 0 allocs/op
// contract.
//
// ActorConfig.VerifyPriorities (cmd/apexactor -verifyprio) makes an
// actor recompute every settled window with scalar TDError and fail
// loudly on any bit mismatch — the cross-process e2e test runs remote
// actors under it, proving batched priorities are bit-for-bit across
// the RPC boundary.
//
// # Learner pacing
//
// The pipeline has one pacing rule, evaluated by the sampler before
// every draw (Trainer.allowedUpdates). With received transitions in
// the replay the learner may have completed at most
//
//	min(budget, LearnPerStep·(received − WarmupSteps), ⌊SamplesPerInsert·received/batch⌋)
//
// updates (the last term only when SamplesPerInsert > 0). The middle
// term keeps the learner behind the experience exactly as round-robin's
// cadence does, so it never runs ahead on a warming-up replay; it is
// lifted once the producers are done, and the rest of the budget is
// spent on what they left behind. SamplesPerInsert is the Reverb-style
// samples-to-inserts ratio: a starved learner waits for fresh
// experience instead of replaying a stale buffer, and gives up what the
// ratio still withholds when the producers are done. A closed gate
// blocks on the learner's ingest notification — signalled by every
// PushExperience an RPC handler makes — never on a timer.
//
// # Fault tolerance
//
// The remote mode assumes processes and the network fail, and makes
// every failure either recoverable or loud:
//
//   - Learner crash: with TrainerConfig.CheckpointPath set the
//     pipeline atomically writes its full training state (six
//     version/progress counters, then the agent's checkpoint;
//     checkpoint.go)
//     every CheckpointEvery updates, and Run writes it once more when
//     the round completes.
//     Trainer.Resume restores it: a SIGKILL'd learner restarts
//     mid-budget with bit-exact weights and spends only what is left
//     of the update and step budgets. Files are magic-tagged and
//     CRC-checksummed; a torn or corrupt checkpoint is rejected, not
//     half-loaded.
//   - Actor crash: spawned ranks are supervised (remote.go). A
//     crashed rank is respawned on its original sigma/seed ladder
//     rung with jittered exponential backoff, at most
//     MaxActorRestarts times; exhausting the budget fails the round:
//     the learner stops at once instead of training on with a hole in
//     the exploration ladder, no completion checkpoint overwrites the
//     last interval one, and Run returns the supervisor's error.
//   - Zombie actors: Register issues a per-actor epoch, and every
//     Push/Pull carries it. A respawn supersedes the old epoch, so a
//     hung predecessor's late calls fail fatally (ErrStaleActorEpoch)
//     rather than corrupting the new incarnation's accounting; an
//     unregistered ID is rejected outright (ErrUnregisteredActor),
//     and an ID that is not a rank of the fleet (RemoteActors) is
//     refused at Register before it becomes a record, so no peer
//     grows the per-actor table or the stats the trainer reports.
//     Drain is additionally bounded by DrainTimeout of push-heartbeat
//     silence, after which stragglers are killed.
//   - Malformed experience: a pushed batch with a row of the wrong
//     shape, a non-finite float or reward, or a NaN, infinite or
//     negative priority is refused whole before it reaches the
//     statistics or the replay, so one bad peer cannot poison the
//     policy every actor is broadcast. The in-process
//     Learner.PushExperience, fed only by the trainer's own actors, is
//     not vetted.
//   - Network faults: every client call has a deadline
//     (RemoteLearner.CallTimeout) that tears down the connection
//     rather than wedging a goroutine; RemoteLearner redials with
//     jittered exponential backoff and transparently re-registers
//     (fresh epoch) when the learner restarted — only deliberate
//     rejections are fatal.
//
// faultrpc.FaultProxy (internal/faultrpc, test support) injects drops,
// delays and partitions between actors and learner; TestChaosKillResume
// drives the whole story — crash-injected actor, lossy proxy, SIGKILL'd
// and resumed learner — and still demands the full update budget and
// bit-exact restored weights across processes. The crash is injected by
// the package's test binary, which the fault-tolerance tests spawn as
// the actor process; cmd/apexactor carries no fault injection.
package apex
