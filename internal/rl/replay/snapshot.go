package replay

import (
	"errors"
	"fmt"
	"math"
)

// Checkpoint/restore support. A snapshot captures every shard's stored
// transitions together with its sum-tree leaf values (the priorities
// already raised to the power α) — restoring leaves verbatim makes the
// restored sampling distribution bit-identical without recomputing any
// math.Pow — plus β and the ingest cursor. Sampling draws from the
// caller's RNG, so a restored buffer given the same RNG draws what the
// saved one would have.

// PrioritizedState is the serializable form of one shard. Before the
// buffer was striped it was the whole snapshot of a single-tree buffer,
// which is the one-shard snapshot {Shards: [st], Beta: st.Beta}.
type PrioritizedState struct {
	// Data and Leaves hold the first Count ring slots (the ring wraps
	// only when full, so slots [0, Count) are exactly the live ones).
	Data   []Transition
	Leaves []float64
	// Next and Count are the ring cursor and fill level.
	Next, Count int
	// Beta is the single-tree snapshot's annealed importance-sampling
	// exponent, zero in a shard record (ShardedState carries β);
	// MaxPrior is the running maximal raw priority used for Add
	// bootstraps.
	Beta, MaxPrior float64
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

// restore installs a validated record's transitions, leaves, cursor
// and maximal priority into an empty shard. Caller holds sh.mu.
func (sh *shard) restore(st *PrioritizedState) {
	if st.Count > 0 {
		sh.data = append(make([]Transition, 0, st.Count), st.Data...)
	}
	for i, leaf := range st.Leaves {
		sh.tree.set(i, leaf)
	}
	sh.next, sh.count, sh.maxPrior = st.Next, st.Count, st.MaxPrior
}

// ShardedState is the serializable form of a Prioritized buffer: one
// record per shard plus the shared sampling state.
type ShardedState struct {
	Shards []PrioritizedState
	Beta   float64
	Ingest uint64
}

// State deep-copies the buffer contents for checkpointing, locking
// one shard at a time (concurrent ingest keeps flowing; the snapshot
// is per-shard consistent, which is all a crash-recovery checkpoint
// needs). Transition slices are aliased, not copied: the snapshot
// shares float data with the live buffer, which is safe because
// transitions are never mutated in place (only overwritten slot-wise on
// eviction — and gob encoding for a checkpoint reads them before any
// eviction can).
func (p *Prioritized) State() ShardedState {
	p.sampleMu.Lock()
	st := ShardedState{Beta: p.beta, Ingest: p.ingest.Load()}
	p.sampleMu.Unlock()
	for k := range p.shards {
		sh := &p.shards[k]
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
func (p *Prioritized) SetState(st ShardedState) error {
	if len(st.Shards) != len(p.shards) {
		return errors.New("replay: snapshot shard count mismatch")
	}
	if p.count.Load() != 0 {
		return errors.New("replay: restore target already holds experience")
	}
	for k := range st.Shards {
		if err := st.Shards[k].validate(p.shardCap); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	total := int64(0)
	for k := range p.shards {
		sh := &p.shards[k]
		rec := &st.Shards[k]
		sh.mu.Lock()
		sh.restore(rec)
		sh.mu.Unlock()
		total += int64(rec.Count)
	}
	p.sampleMu.Lock()
	p.beta = st.Beta
	p.sampleMu.Unlock()
	p.ingest.Store(st.Ingest)
	p.count.Store(total)
	return nil
}
