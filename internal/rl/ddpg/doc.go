// Package ddpg implements Deep Deterministic Policy Gradient
// (Lillicrap et al., ICLR'16) — Algorithm 2 of the GreenNFV paper:
// an actor-critic method for continuous, high-dimensional action
// spaces, which is why the paper selects it over Q-learning and DQN
// for the five-knobs-per-NF resource-control problem.
//
// # Paper mapping
//
// Algorithm 2 end to end: OU exploration noise (line 1), prioritized
// minibatch sampling (line 3), critic regression and actor gradient
// (lines 5–8), soft target updates (lines 9–10). The trained actor
// is the policy deployed in Figures 6–11.
//
// # Concurrency and determinism
//
// An Agent is NOT goroutine-safe; the Ape-X learner serializes
// updates, and each actor owns a private View (act.go: the policy,
// frozen priority networks and noise, inference-only). Training is
// deterministic given Config.Seed and a fixed replay history (up to
// the CPU-feature caveat documented in internal/nn), which is what
// keeps the round-robin training figures byte-identical.
//
// Learn is organized as sample + learnMinibatch: Learn draws a
// prioritized minibatch and hands it to the update, and the Ape-X
// pipeline reaches the same update through LearnBatch with a
// prefetched minibatch instead. Every update starts with one head
// (bootstrapTargets: assemble the matrices, compute the targets) and
// runs batched network passes over reusable scratch (zero allocations
// per update, including sampling, pinned by benchmarks). There are
// two bodies behind the head. LearnBatch takes the fused one,
// learnFused — one 2n-row critic forward over [regression; (s,μ(s))
// probes] with nn.BackwardBatchSplit, where dQ/da reads the
// pre-update critic — which is bit-unidentical to the unfused order
// and therefore used only by the non-deterministic parallel mode;
// the unfused sequence is op-identical to the original Learn and
// stays on the figure path. learnFused and the head are written once
// over float32 | float64, on nn's generic batch engine. Both bodies end
// each network's half the same way: one nn.AdamStep that averages the
// gradients, clips, steps Adam and soft-updates that network's target
// in the same kernel pass (Algorithm 2 lines 9–10 ride the optimizer;
// the targets are read by nothing in between, so moving them earlier
// in the step changes no bit). And both ask the critic's first layer
// for dQ/da alone — the action columns of dQ/d(s, a), and in the fused
// body only the probe rows (nn.BackwardBatchInput, nn.BackwardBatchSplit
// with a column offset) — which is exactly the actor's dY: the state
// columns and regression rows are never computed, and nothing is
// copied. The replay behind Observe/ObserveBatch is
// goroutine-safe (see internal/replay), so experience ingest may run
// concurrently with action selection but not with updates.
//
// # Float32 fast path
//
// SetFloat32(true) routes both Learn and LearnBatch through
// learnFused at float32 — the same body LearnBatch runs at float64,
// on the float32 instantiation of internal/nn's batch engine —
// roughly 1.3x the f64 update rate on AVX2. Where that body leaves T
// it does so at either type, and each is an identity at float64: the
// transitions, rewards and importance weights arrive as float64 and
// are narrowed to T; the loss and the TD errors written back as
// priorities are widened from a product computed in T; TDErrorBatch
// forms its targets in float64 from widened Q values. Precision
// contract: while enabled, the f32 parameter
// mirrors of all four networks are authoritative and the f64 weights
// go stale; ActorBytes flushes the actor mirror before encoding
// (broadcasts always carry the current policy) and SetFloat32(false)
// flushes everything back, after which ActInto/TDError see the
// trained policy. The path is deterministic given the seed on a fixed
// CPU feature set but NOT bit-comparable to the f64 update; its drift
// is quantified by TestLearnF32ParityWithF64 (max |ΔQ| and |Δaction|
// well under 1e-3 after a fixed 40-update schedule). No trainer
// enables it, so no figure depends on it; bench/'s f32 probes and this
// package's tests are its callers. Zero allocations per update once
// warm, pinned by TestLearnBatchF32ZeroAlloc.
//
// # Batched acting
//
// The acting side has its own batched layer, independent of the
// learner paths above:
//
//   - ActInto is the one way to act: action selection into a
//     caller-owned slice, defined once on Policy (Greedy is its
//     noiseless form) and reached through View and Agent.
//   - ActBatch selects actions for n actors' states in one call —
//     one nn.ForwardRows pass over the row matrix plus the per-lane
//     OU noise draws and clamps. ForwardRows keeps one sequential
//     summation order per row, so the f64 batch is BIT-IDENTICAL to
//     n one-row ActInto calls (pinned by TestActBatchMatchesScalarReference);
//     it exists so batching is a pure throughput knob, never a numerics
//     change. No trainer uses it: every Ape-X actor acts through
//     ActInto, and bench/'s ddpg.act_batch_f32_us probe is the one
//     caller outside tests.
//   - TDErrorBatch computes |δ| priorities for a whole push window in
//     two target-net row passes instead of 3·n scalar forwards, again
//     bit-identical to scalar TDError. It reads only the target nets
//     and the critic — parameters a learner broadcast never touches —
//     which is why the Ape-X actor may defer priority settlement to
//     push time without changing a single priority bit.
//   - SetActFloat32 routes ActBatch/TDErrorBatch through the f32
//     batch engine (~2x on AVX2; TDErrorBatch is one body taking the
//     forward pass as a parameter — ForwardRows at float64,
//     nn.ForwardBatch at float32) WITHOUT touching the learner state:
//     it mirrors only the acting nets, and it is a no-op while
//     SetFloat32 learning is enabled on the same agent — the learner
//     owns the mirrors then, and acting precision must not fight it.
//     Drift vs f64 is bounded by TestActBatchFloat32Parity (≤1e-3).
//
// All batched-acting entry points are zero-allocation in steady state
// (TestActBatchNoAllocs); scratch grows monotonically to the largest
// batch seen.
//
// # Checkpoint
//
// SaveState (checkpoint.go) writes the COMPLETE training state: all four
// networks, both Adam moment sets (f64 and, once the f32 path ran, f32),
// the OU noise, the exploration-RNG stream position, the learn-step
// counter and optionally the replay contents. An agent restored from it
// acts, learns and writes parameter bytes on every later step exactly
// as the original would have (TestCheckpointRoundTrip/F32). So the
// target Config must match byte for byte, and LoadState requires an
// EMPTY replay when the checkpoint carries one (two histories would
// splice), replacing it with one of the snapshot's stripe count. The
// RNG restores by draw count — re-seed and fast-forward — so a
// checkpoint is as stable across Go versions as math/rand's generator.
//
// There is one layout; SaveState(w, false) is the serving checkpoint.
// Little-endian (A = ActionDim, P = a network's parameter count):
//
//	policy section, serving.go:
//	  magic "GNFVPOL1"; uint64 length and uint32 IEEE CRC32 of every
//	  byte after them, to the end of the file (an atomicio.Sum)
//	  config: int64 StateDim, ActionDim; uint32 len(Hidden), int64 each
//	  width; float64 ActorLR, CriticLR, Gamma, Tau; int64 BatchSize,
//	  BufferCap; byte Prioritized (0/1); float64 PERAlpha, PERBeta,
//	  PERBetaInc, OUTheta, OUSigma, NoiseDecay; int64 Seed
//	  the actor's nn parameter frame
//	training state, checkpoint.go (absent in the policy-only form):
//	  magic "GNFVAGT1"
//	  the critic's, actor target's and critic target's frames
//	  the actor's, then the critic's nn.Adam state: per precision, f64
//	  then f32, int64 step count t and, if t > 0, P first then P second
//	  moments at that precision
//	  float64 × A OU state, float64 sigma; uint64 RNG draws; int64
//	  LearnSteps
//	  byte 0, or 1 and a replay.Prioritized snapshot to the end
//
// Every length follows from the Config and from counts stored before
// what they count. ReadCheckpoint reads a file once, comparing each
// length with the bytes left before anything is read or sized by it,
// and checks what the bytes can show: the sum, the Config as New
// validates it, finite moments with non-negative second moments, a
// finite noise state, LearnSteps ≥ 0, and the replay (replay.SplitState).
// LoadState (resume) and LoadAgentBytes (inference, which builds its agent
// from the Config and skips the replay and the RNG fast-forward) then
// check the frame headers against the live networks and the Config and
// replay against the receiving agent, and only then write: a refused
// checkpoint changes nothing.
//
// # Serving checkpoint
//
// A controller serves the policy section. ReadPolicy reads it alone
// from a stream of a stated size: the magic; the config's width count
// and then, in checked arithmetic, the actor frame the Config implies,
// each compared with the bytes the size leaves before anything is
// allocated by it; the Config validated as New does; the section read
// straight into its policy-only form, one slice of exactly the
// section's size, sealed in place with a sum of its own; every byte
// after the section streamed through the CRC and dropped, in an 8 KB
// buffer that a sync.Pool keeps with its reader, so that boots,
// reloads and resumes do not each allocate one; the actor frame's
// header checked against the Config's topology by nn.CheckMLPFrame,
// which needs no network (the check LoadParams makes, with its
// refusals). ReadPolicy builds nothing: it
// returns the Config and the policy-only form, so what a read allocates
// is the form and the config's bytes, whatever the file carries behind
// the section. A refusal found in the section waits for the sum: a file
// whose sum fails gets the sum's refusal, the same message readSection
// (ReadCheckpoint's whole-slice reader, which makes the same checks in
// the same order) gives. LoadPolicy is ReadPolicy over bytes in memory.
// The policy-only form is what a serving controller persists, and
// ActorFrame finds the actor frame inside it: PolicyFromFrame builds an
// inference-only policy from it, its weights decoded straight from the
// frame with no random draw, and a replica of the same topology
// refreshes from it in place (LoadParams). A training
// state that does not open with GNFVAGT1 is refused by LoadAgentBytes
// and LoadState while its section still serves, and bytes that do not
// open with the section are refused by every reader.
//
// # Parameter broadcast and policy file
//
// ActorBytes is the separate, policy-only format: one nn parameter
// frame (internal/nn doc, "Parameter frame" — magic, per-layer header,
// the raw bits of W and B) of the actor network. It is the Ape-X
// broadcast on every transport — in-process actors, under either
// scheduler, and remote actor processes all LoadActorBytes what the
// learner's AppendActorBytes made — and the policy file Policy.Save
// writes. ActorBytes encodes into a new buffer of exactly the frame's
// size that the agent never touches again; AppendActorBytes encodes
// into the caller's, which is how the Ape-X learner keeps one buffer
// across versions: a puller may read a frame until it releases it, and
// the learner re-encodes into that buffer only when no puller holds it
// and into a new one otherwise, so a held frame is never rewritten
// (internal/rl/apex, "Parameter broadcast"). LoadActorBytes checks the
// whole frame against the live actor before writing and then copies in
// place without allocating. The frame is the package's only encoding of a
// network: a checkpoint carries all four as frames, which LoadState
// and LoadAgentBytes copy back in place through the same nn.LoadParams.
// Bytes that are not a frame get nn.ErrNotParamFrame.
//
// # Replay ownership
//
// Every agent is built with a replay of Config.BufferCap, but the
// capacity is a bound, not a reservation: the ring and the sum tree
// both grow with what is stored (internal/rl/replay's package doc has
// the growth rule and why no sample can tell), so a starved learner
// holds a few hundred bytes of replay and a running one what it has
// observed: about 110 KB for 300 transitions (TestAgentFootprint). What
// only acts holds no training state: an Ape-X actor's View (NewView)
// and a serving replica's Policy have no replay, no optimizer and
// inference-only networks, and an Agent's targets carry no gradient
// buffers either (TestAgentFootprint).
//
// # Releasing training memory
//
// A trained agent that will only be deployed and saved
// (control.GreenNFV after TrainOn) calls ReleaseTrainingMemory. In
// place and without allocating, it drops the replay's contents
// (replay.Prioritized.Release: β, the ingest cursor and each stripe's
// maximal priority survive, the rows and the storage do not), the
// minibatch and acting scratch at both element types, every batch
// cache of the critic and both targets, and the actor's backward
// scratch. It keeps everything a checkpoint records — four networks,
// gradients, both Adam moment sets, the noise, the RNG position, the
// counters — and the actor's forward caches, so a deploy's one-row
// pass still allocates nothing. ActInto, TDError, ActorBytes and
// SaveState(w, false) give the same bits before and after; Learn
// returns 0 until BatchSize transitions arrive again, and the scratch
// regrows on the next pass (TestReleaseTrainingMemory).
package ddpg
