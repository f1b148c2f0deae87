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
// Trainer runs one of three modes:
//
//   - Round-robin (default): actors interleave single-threaded.
//     Deterministic given the seeds — the mode behind every recorded
//     figure; its outputs are byte-diffed across PRs.
//   - Parallel (TrainerConfig.Parallel): ONE VecActor driver
//     goroutine (vecactor.go) steps every actor environment through
//     a VecEnv with a single batched policy pass per round, while a
//     sampler/learner pipeline (prefetch.go) runs batched updates
//     over the lock-striped replay. Fastest in-process mode; NOT
//     deterministic.
//   - Remote (TrainerConfig.RemoteActors): the paper's multi-node
//     split. The trainer serves the learner over net/rpc (rpc.go)
//     and actors run as separate OS processes (cmd/apexactor,
//     spawned via SpawnRemote or started externally against
//     ListenAddr), reconstructing environments from a JSON ActorSpec
//     and exchanging experience/parameters through a reconnecting
//     RemoteLearner client. NOT deterministic.
//
// All three modes spend the same learner-update budget
// (LearnPerStep × post-warmup steps), so they are comparable runs of
// the same algorithm, not different algorithms.
//
// A trainer is given its environments one way:
// TrainerConfig.StepperFactory builds an env.Stepper per actor —
// *env.Env for the paper's single host, *env.ClusterEnv for a
// multi-node topology (actor networks are sized from the probe's
// StateDim/ActionDim, so the placement head needs nothing special).
// Round-robin takes either; Parallel vectorizes the single-node
// layout through VecEnv and rejects anything but *env.Env; Remote
// ignores the factory and builds *env.Env from RemoteSpec on both
// sides of the wire.
//
// # Concurrency and determinism
//
// The Learner's experience ingest (PushExperience) is lock-free with
// pooled conversion scratch — concurrent pushes neither serialize
// each other nor stall behind a learning step; its mutex guards only
// the parameter broadcast (version + serialized actor cache).
// Actors are single-threaded and own their environments. The
// net/rpc transport (Server/Client/RemoteLearner) is goroutine-safe;
// per-actor connection lifecycle (registration, push stats, drain)
// lives in LearnerService. Only the round-robin mode is
// deterministic; tests and figures rely on it.
//
// # Actor stepping: arena, batched priorities, verification
//
// Actor.Step and the VecActor round are zero-allocation in steady
// state. Each PushEvery window's transitions live in one flat
// txnArena chunk (arena.go) instead of per-step slices; priorities
// are settled lazily at Flush/SyncParams time with one
// ddpg.TDErrorBatch call over the window — bit-identical to eager
// scalar TDError because the priority nets are untouched by
// parameter broadcasts (see internal/rl/ddpg doc). What happens to
// the chunk after PushExperience is the learner's call:
// LearnerAPI.RetainsExperience reports whether the endpoint keeps
// aliases of the pushed slices (the in-process Learner does; Client
// and RemoteLearner gob-serialize inside the call and do not), and
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
// TrainerConfig.SamplesPerInsert bounds how far the learner may run
// ahead of experience ingest in the concurrent modes (Reverb-style
// samples-to-inserts ratio). The sampler blocks on the learner's
// ingest signal whenever drawing the next minibatch would exceed
// ratio × transitions received, so a starved learner waits for fresh
// experience instead of replaying a stale buffer; the remote mode
// applies the same cap to its update budget. Zero (the default)
// preserves the fixed LearnPerStep budget of the comparable-runs
// contract above.
//
// # Fault tolerance
//
// The remote mode assumes processes and the network fail, and makes
// every failure either recoverable or loud:
//
//   - Learner crash: with TrainerConfig.CheckpointPath set the
//     trainer atomically writes its full training state (the agent's
//     SaveState blob plus version/progress counters; checkpoint.go)
//     every CheckpointEvery updates and after drain. Trainer.Resume
//     restores it — a SIGKILL'd learner restarts mid-budget with
//     bit-exact weights, and with CheckpointReplay even its next
//     updates are bit-exact. Files are magic-tagged and
//     CRC-checksummed; a torn or corrupt checkpoint is rejected, not
//     half-loaded.
//   - Actor crash: spawned ranks are supervised (remote.go). A
//     crashed rank is respawned on its original sigma/seed ladder
//     rung with jittered exponential backoff, at most
//     MaxActorRestarts times; exhausting the budget fails the round
//     instead of training on with a hole in the exploration ladder.
//   - Zombie actors: Register issues a per-actor epoch, and every
//     Push/Pull carries it. A respawn supersedes the old epoch, so a
//     hung predecessor's late calls fail fatally (ErrStaleActorEpoch)
//     rather than corrupting the new incarnation's accounting; an
//     unregistered ID is rejected outright (ErrUnregisteredActor).
//     Drain is additionally bounded by DrainTimeout of push-heartbeat
//     silence, after which stragglers are killed.
//   - Network faults: every client call has a deadline (Client.
//     Timeout) that tears down the connection rather than wedging a
//     goroutine; RemoteLearner redials with jittered exponential
//     backoff and transparently re-registers (fresh epoch) when the
//     learner restarted — only deliberate rejections are fatal.
//
// faultrpc.FaultProxy (internal/faultrpc, test support — this package
// no longer carries it) injects drops, delays and partitions between
// actors and learner for tests; TestChaosKillResume drives
// the whole story — crash-injected actor, lossy proxy, SIGKILL'd and
// resumed learner — and still demands the full update budget and
// bit-exact restored weights across processes.
package apex
