// Package replay provides experience-replay buffers for DDPG: a
// uniform ring buffer and the prioritized buffer (Schaul et al.,
// "Prioritized Experience Replay") that the Ape-X architecture
// (Horgan et al.) extends to distributed actors. Priorities live in
// a sum tree so sampling and updates are O(log n).
//
// # Paper mapping
//
// The shared prioritized replay of §4.3.2/Algorithm 3 — the buffer
// NF-controller actors fill and the central learner samples.
//
// # Capacity is a bound, not a reservation
//
// A buffer's capacity says when the ring starts evicting, not what it
// allocates. Transition storage grows with the contents (doubling, never
// past the capacity), and a prioritized buffer's sum tree is allocated
// by the first add — at its full power-of-two size from then on,
// because leaf positions and the order of the partial sums decide which
// transition a prefix sum finds, so nothing a caller can observe
// depends on how much is stored (TestReplayGrowthParity hashes a script
// of adds, samples, priority write-backs and snapshot hand-overs against
// the values of the fully preallocated buffers). A buffer nobody adds
// to — every Ape-X actor's, every serving replica's — costs a few
// hundred bytes; a 65 536-slot one used to cost 6.8 MB at construction.
//
// # Snapshots
//
// State/SetState (snapshot.go) move a buffer's contents through a
// checkpoint. SetState treats the snapshot as bytes from a file: fill
// level within capacity, Data and Leaves agreeing with it, the ring
// cursor where a ring of that fill level has it, no NaN or negative
// leaf — for every shard before any shard is written — or the target
// is left untouched.
//
// # Concurrency and determinism
//
// All buffers are goroutine-safe. Uniform and Prioritized each use
// one internal mutex (Prioritized's guards the sum tree), and
// AddBatch/UpdatePrioritiesBatch amortize it to one acquire per
// chunk. Sharded is the lock-striped variant the
// parallel/remote Ape-X modes install: K shards, each with its own
// sum tree and RNG stream, round-robin chunk ingest (one shard lock
// per AddBatch chunk), stratified SampleInto with boundary carry
// (unbiased — total-variation distance to the single-tree sampler is
// pinned < 0.03 by a parity test), and an atomic Len. Sampling from
// either prioritized buffer is deterministic given the caller's RNG
// and the insertion history; the deterministic round-robin figure
// path uses the single-tree Prioritized so recorded training curves
// replay exactly. SampleInto variants are the zero-alloc sampling
// path (caller-owned slices).
package replay
