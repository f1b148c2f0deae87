package replay

import (
	"errors"
	"fmt"
	"math"
)

// Checkpoint/restore support for the prioritized buffers. A snapshot
// captures the stored transitions together with the sum-tree leaf
// values (the priorities already raised to the power α) — restoring
// leaves verbatim makes the restored sampling distribution
// bit-identical without recomputing any math.Pow. The single-tree
// Prioritized restores exactly (its RNG stream lives in the caller);
// the lock-striped Sharded restores contents exactly but re-derives
// its per-shard RNG streams from a fresh seed, which is fine because
// only the non-deterministic trainer modes use it.

// PrioritizedState is the serializable form of a Prioritized buffer.
type PrioritizedState struct {
	// Data and Leaves hold the first Count ring slots (the ring wraps
	// only when full, so slots [0, Count) are exactly the live ones).
	Data   []Transition
	Leaves []float64
	// Next and Count are the ring cursor and fill level.
	Next, Count int
	// Beta is the annealed importance-sampling exponent; MaxPrior the
	// running maximal raw priority used for Add bootstraps.
	Beta, MaxPrior float64
}

// State deep-copies the buffer contents for checkpointing. Transition
// slices are aliased, not copied: the snapshot shares float data with
// the live buffer, which is safe because transitions are never
// mutated in place (only overwritten slot-wise on eviction — and gob
// encoding for a checkpoint reads them before any eviction can).
func (p *Prioritized) State() PrioritizedState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PrioritizedState{
		Data:   append([]Transition(nil), p.data[:p.count]...),
		Leaves: make([]float64, p.count),
		Next:   p.next, Count: p.count,
		Beta: p.beta, MaxPrior: p.maxPrior,
	}
	for i := 0; i < p.count; i++ {
		st.Leaves[i] = p.tree.get(i)
	}
	return st
}

// validate reports why the snapshot cannot be the contents of a ring of
// the given capacity. The bytes come from a checkpoint file: the fill
// level must fit, Data and Leaves must agree with it, the cursor must be
// where a ring with that fill level has it (a ring that is not full has
// never wrapped, so Next == Count; a full one evicts at 0 ≤ Next <
// capacity — anything else indexes outside the storage at the next Add),
// and no leaf may be NaN or negative.
func (st *PrioritizedState) validate(capacity int) error {
	if st.Count < 0 || st.Count > capacity || len(st.Data) != st.Count || len(st.Leaves) != st.Count {
		return errors.New("replay: snapshot does not fit buffer capacity")
	}
	if st.Count < capacity && st.Next != st.Count || st.Count == capacity && (st.Next < 0 || st.Next >= capacity) {
		return errors.New("replay: corrupt snapshot ring cursor")
	}
	for _, leaf := range st.Leaves {
		if math.IsNaN(leaf) || leaf < 0 {
			return errors.New("replay: corrupt snapshot leaf priority")
		}
	}
	return nil
}

// restore installs a validated snapshot's transitions, leaves and
// cursor into an empty ring and its tree.
func (r *ring) restore(tree *sumTree, st *PrioritizedState) {
	if st.Count > 0 {
		r.data = append(make([]Transition, 0, st.Count), st.Data...)
	}
	for i, leaf := range st.Leaves {
		tree.set(i, leaf)
	}
	r.next, r.count = st.Next, st.Count
}

// SetState restores a snapshot into this buffer, which must have the
// same capacity it was taken from and must still be empty. A refused
// snapshot leaves the buffer untouched.
func (p *Prioritized) SetState(st PrioritizedState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.count != 0 {
		return errors.New("replay: restore target already holds experience")
	}
	if err := st.validate(p.capacity); err != nil {
		return err
	}
	p.restore(&p.tree, &st)
	p.beta, p.maxPrior = st.Beta, st.MaxPrior
	return nil
}

// ShardedState is the serializable form of a Sharded buffer: one
// PrioritizedState-shaped record per shard plus the shared sampling
// state. Per-shard RNG streams are not captured; a restored buffer
// samples from fresh streams (the parallel modes are
// non-deterministic by contract).
type ShardedState struct {
	Shards []PrioritizedState
	Beta   float64
	Ingest uint64
}

// State deep-copies the buffer contents for checkpointing, locking
// one shard at a time (concurrent ingest keeps flowing; the snapshot
// is per-shard consistent, which is all a crash-recovery checkpoint
// needs).
func (s *Sharded) State() ShardedState {
	s.sampleMu.Lock()
	st := ShardedState{Beta: s.beta, Ingest: s.ingest.Load()}
	s.sampleMu.Unlock()
	for k := range s.shards {
		sh := &s.shards[k]
		sh.mu.Lock()
		rec := PrioritizedState{
			Data:   append([]Transition(nil), sh.data[:sh.count]...),
			Leaves: make([]float64, sh.count),
			Next:   sh.next, Count: sh.count, MaxPrior: sh.maxPrior,
		}
		for i := 0; i < sh.count; i++ {
			rec.Leaves[i] = sh.tree.get(i)
		}
		sh.mu.Unlock()
		st.Shards = append(st.Shards, rec)
	}
	return st
}

// SetState restores a snapshot into this buffer, which must have the
// same shard count and per-shard capacity and must still be empty.
// Every shard's record is validated before the first is written, so a
// refused snapshot leaves the buffer untouched.
func (s *Sharded) SetState(st ShardedState) error {
	if len(st.Shards) != len(s.shards) {
		return errors.New("replay: snapshot shard count mismatch")
	}
	if s.count.Load() != 0 {
		return errors.New("replay: restore target already holds experience")
	}
	for k := range st.Shards {
		if err := st.Shards[k].validate(s.shardCap); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	total := int64(0)
	for k := range s.shards {
		sh := &s.shards[k]
		rec := &st.Shards[k]
		sh.mu.Lock()
		sh.restore(&sh.tree, rec)
		sh.maxPrior = rec.MaxPrior
		sh.mu.Unlock()
		total += int64(rec.Count)
	}
	s.sampleMu.Lock()
	s.beta = st.Beta
	s.sampleMu.Unlock()
	s.ingest.Store(st.Ingest)
	s.count.Store(total)
	return nil
}
