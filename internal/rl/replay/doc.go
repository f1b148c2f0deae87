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
// The concurrent Ape-X pipeline keeps that buffer too, at every core
// count: striping bought its learner no updates at any ingest rate it
// can follow, and cost it most of them under saturated ingest at eight
// stripes. NewSharded builds K > 1 stripes for the bench module's
// replay probes and for restoring a K-stripe snapshot. Sampling is
// deterministic given the caller's RNG, the stripe count and the
// insertion history.
//
// # Capacity is a bound, not a reservation
//
// A buffer's capacity says when the ring starts evicting, not what it
// allocates. Transition storage and a stripe's sum tree both grow with
// the contents, doubling and never past the capacity: the ring from 16
// slots, the tree from 16 leaves (minTreeLeaves) to the power of two
// that covers the highest slot set so far, at most the stripe capacity
// rounded up to a power of two (cap). A set beyond the held leaves
// doubles the tree, copies the leaves and recomputes every internal
// node bottom-up as left + right; LoadState sizes each stripe's tree
// once for the fill level it restores; a stripe grows under the lock
// it is written under.
//
// Nothing a caller can observe depends on how much is stored, because
// what the tree answers is the full cap-leaf tree's, bit for bit:
//
//   - Every internal node of either tree is its left child plus its
//     right child (a set recomputes each node it passes from both
//     children), so a node depends only on the leaves below it. The
//     grown tree is the full tree's leftmost subtree of n leaves, node
//     for node; every leaf right of it is +0, and so is every sum of
//     them.
//   - Each full-tree node above the grown root X is therefore
//     X + (+0), which is X — except that it turns −0 into +0, so total
//     adds +0 to X while n < cap. A −0 leaf is possible: ReadRows
//     refuses a negative leaf, and −0 < 0 is false.
//   - find(v) for v < X takes the full tree's path: each comparison
//     above X is v < X (sign of zero aside) and goes left, leaving v
//     unchanged. For !(v < X) — v ≥ X, or NaN; SampleInto hands find
//     +Inf and NaN when an infinite priority makes the mass infinite —
//     the full tree goes right into its padding, where every left
//     child is +0 and v − X never drops below it, and ends at leaf
//     cap−1. So while n < cap find returns cap−1 there, and SampleInto
//     clamps it to the last stored slot as it clamps every padding
//     leaf.
//
// TestSumTreeWalksLikeFullTree holds a growing tree against a copy of
// the full-size one through random adds, wrap-arounds, write-backs
// (+Inf leaves among them) and restores (−0 among them), comparing
// every find and the bits of total; TestReplayGrowthParity hashes a
// script of adds, samples, priority write-backs and snapshot hand-overs
// against the values of the fully preallocated buffers. A buffer nobody
// adds to — every Ape-X actor's, every serving replica's — costs a few
// hundred bytes; a 65 536-slot one used to cost 6.8 MB at construction.
//
// Release hands the storage back: each stripe's ring and tree return
// to nil, as in a new buffer, in place and without allocating. It
// keeps what a snapshot records besides the rows — β, the ingest
// cursor and each stripe's maximal priority — so a released buffer is
// the one LoadState restores from its own snapshot, and once refilled
// it samples as that one does (TestReleasedBufferHoldsNoStorage).
// A trained agent calls it when training ends (ddpg's package doc,
// "Releasing training memory").
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
