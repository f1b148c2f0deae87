// Package env is the reinforcement-learning environment GreenNFV
// trains in: it wraps the performance model (the simulated testbed)
// behind the paper's state space (equation 8: per-NF throughput,
// energy, CPU utilization, packet arrival rate) and action space
// (equation 7: per-NF CPU share, frequency, LLC allocation, DMA
// buffer size, batch size), and pays rewards through the configured
// SLA.
//
// # Paper mapping
//
//   - StatePerNF/KnobsPerNF: equations 8 and 7.
//   - Reward: delegated to internal/sla (§4.3.1, equations 1–3).
//   - StandardWorkload: the five-flow evaluation mix; LoadJitter is
//     the per-interval load noise that defeats static heuristics.
//   - FrozenKnobs: the knob-contribution ablation.
//
// # One environment
//
// ClusterEnv is the environment, and the only implementation of the
// step: decode the action, advance the load process, evaluate the
// cluster (internal/cluster), observe, pay the reward. It carries
// per-chain knob blocks in chain-major order and, when
// ClusterConfig.Placement is nil on a multi-node topology, a trailing
// C×N placement-logit block the agent decodes by per-chain argmax
// (the DRL placement head). With a non-nil Placement policy the
// assignment is solved once at construction and pinned; the action
// space is knobs only. ClusterConfig.Assignment pins an
// already-resolved assignment (chain index → node index) without
// consulting a policy — it is what Assignment() reads back from an
// environment built with Placement, so a caller building many
// environments over one workload (internal/sweep) solves once and
// builds the rest from the result; the two environments step
// identically (TestClusterEnvResolvedAssignment). Either way the
// assignment is vetted when it is pinned: every chain named exactly
// once, every index a node of the topology, or NewCluster returns an
// error naming the policy — never a silent node 0, never a panic from
// the first evaluation (TestClusterEnvPinVetting).
//
// Env — the paper's setting, one host and one chain — is the 1-node,
// 1-chain ClusterEnv: New maps Config.Model onto the cluster's only
// node (no link, no hops, no placement head) and Env embeds the
// result, adding only the single-chain accessors the serving plane,
// the heuristic controllers and the figures use (Chain, Last,
// LastTraffic, SetKnobs, DecodeAction). Its info Result
// is the chain's full perfmodel.Result, verbatim. There is no
// single-node fast path to keep in step: TestEnvEpisodeFingerprint
// pins whole single-node episodes to hashes recorded from the
// stand-alone implementation this replaced, and cluster's
// TestSingleNodeReduction pins a 1-node cluster evaluation to the
// perfmodel path.
//
// The Stepper interface is the stepping surface the RL stack trains
// against (internal/rl/apex and control.GreenNFV take Steppers, not
// concrete types).
//
// Flow sets are validated once, in Aggregate, for every constructor
// path: frame sizes inside the Ethernet range the model accepts,
// finite positive rates, finite burstiness and totals. A spec off the
// wire (apex.ActorSpec) that the model would refuse is an error from
// the constructor, never a panic from the first evaluation.
//
// # Concurrency and determinism
//
// An environment is deterministic given its Seed: the load process
// draws from a private RNG whose source is reused across Resets, so a
// seeded episode replays exactly — the property the round-robin
// Ape-X mode and the recorded training figures rely on. It is NOT
// goroutine-safe; each Ape-X actor owns one instance, on its own RNG
// and scratch. StepInto, ObserveInto
// and Env.SetKnobs allocate nothing in steady state (caller-owned observation buffer, pre-clamped default
// knobs, capacity-reused cluster scratch; TestEnvStepZeroAlloc,
// TestClusterEnvStepAllocs); Step/Reset are allocating wrappers.
package env
