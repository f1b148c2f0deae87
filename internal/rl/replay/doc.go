// Package replay provides experience-replay buffers for DDPG: a
// uniform ring buffer and the prioritized buffer (Schaul et al.,
// "Prioritized Experience Replay") that the Ape-X architecture
// (Horgan et al.) extends to distributed actors. Priorities live in
// sum trees so sampling and updates are O(log n).
//
// # Paper mapping
//
// The shared prioritized replay of §4.3.2/Algorithm 3 — the buffer
// NF-controller actors fill and the central learner samples.
//
// # One buffer, K stripes
//
// There is one prioritized buffer, Prioritized: its capacity is split
// over K lock stripes (shards), each a mutex with its own data ring and
// sum tree. Ingest rotates whole chunks round-robin across the stripes
// (AddBatch takes one stripe lock per chunk); UpdatePrioritiesBatch
// relocks only where the indices cross a stripe; Len is an atomic
// count. SampleInto divides the concatenated priority mass into n
// equal strata and draws one point per stratum, in ascending order,
// from the caller's RNG; the walk visits each stripe at most once under
// its lock, so every transition is drawn with probability p^α/Σp^α
// whatever K is (TestShardedStratifiedParity holds eight stripes and
// one within total-variation distance 0.03 of the exact law). Returned
// indices are global: stripe × per-stripe capacity + slot.
//
// Every agent is built with one stripe (NewPrioritized), the buffer of
// the deterministic round-robin learner behind every recorded figure:
// one stripe is the historical single-tree buffer — same leaves, same
// strata, same draws from the same RNG, bit for bit
// (TestReplayGrowthParity's "prioritized" hash is the single tree's).
// The concurrent Ape-X pipeline installs K = min(max(GOMAXPROCS, 2), 16)
// stripes (NewSharded) before experience flows, so actors pushing and
// the learner's sampler contend on stripe locks, never on one mutex.
// Sampling is deterministic given the caller's RNG, the stripe count
// and the insertion history.
//
// # Capacity is a bound, not a reservation
//
// A buffer's capacity says when the ring starts evicting, not what it
// allocates. Transition storage grows with the contents (doubling, never
// past the capacity), and a stripe's sum tree is allocated by the first
// add to it — at its full power-of-two size from then on, because leaf
// positions and the order of the partial sums decide which transition
// a prefix sum finds, so nothing a caller can observe depends on how
// much is stored (TestReplayGrowthParity hashes a script of adds,
// samples, priority write-backs and snapshot hand-overs against the
// values of the fully preallocated buffers). A buffer nobody adds to —
// every Ape-X actor's, every serving replica's — costs a few hundred
// bytes; a 65 536-slot one used to cost 6.8 MB at construction.
//
// # Snapshots
//
// AppendState writes a buffer's contents as bytes (snapshot.go has the
// layout) and LoadState restores them into an empty buffer of the same
// stripe count, checking all of it as SplitState does — fill levels,
// cursors, rows, leaves — before the first stripe is written. A caller
// that does not know the stripe count reads it off SplitState and
// builds the buffer to match (ddpg.Agent.LoadState does).
//
// A stored transition crosses every boundary as one row: its leaf, then
// its fields, written by AppendRow and read by ReadRows, which refuses a
// non-finite float, a negative leaf or a done byte other than 0 or 1.
// The snapshot is rows behind stripe headers, and an Ape-X push
// (internal/rl/apex) is rows behind the pushing actor's header, its
// leaf slot the actor's raw priority.
//
// # Concurrency
//
// Both buffers are goroutine-safe. Uniform uses one mutex; Prioritized
// one per stripe plus one that serializes samplers (it owns β and the
// per-stripe mass snapshot). SampleInto variants are the zero-alloc
// sampling path (caller-owned slices).
package replay
