package replay

import (
	"math"
	"math/rand"
	"testing"
)

// TestSnapshotRoundTripAtEvictionBoundary drives the ring past
// capacity so eviction has wrapped the cursor, then checks the
// snapshot restores the sum-tree leaves bit-exactly: same stored
// data, same leaf priorities (no recomputed math.Pow), and an
// identical sampling stream from an identical RNG.
func TestSnapshotRoundTripAtEvictionBoundary(t *testing.T) {
	const capacity = 8
	src, err := NewPrioritized(capacity, 0.6, 0.4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// 13 adds into 8 slots: 5 evictions, cursor mid-ring.
	for i := 0; i < 13; i++ {
		src.AddWithPriority(tr(float64(i)), 0.25+float64(i))
	}
	a := &src.shards[0]
	if src.Len() != capacity || a.next != 13%capacity {
		t.Fatalf("fixture not at eviction boundary: len %d next %d", src.Len(), a.next)
	}

	st := src.State()
	dst, err := NewPrioritized(capacity, 0.6, 0.4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.SetState(st); err != nil {
		t.Fatal(err)
	}
	b := &dst.shards[0]
	if b.count != a.count || b.next != a.next || b.maxPrior != a.maxPrior || dst.beta != src.beta {
		t.Fatalf("restored cursor state differs: %d/%d/%v vs %d/%d/%v",
			b.count, b.next, b.maxPrior, a.count, a.next, a.maxPrior)
	}
	for i := 0; i < capacity; i++ {
		if got, want := b.tree.get(i), a.tree.get(i); got != want {
			t.Errorf("leaf %d: restored priority %v, want %v", i, got, want)
		}
		if b.data[i].Reward != a.data[i].Reward {
			t.Errorf("slot %d: restored reward %v, want %v", i, b.data[i].Reward, a.data[i].Reward)
		}
	}
	if b.tree.total() != a.tree.total() {
		t.Errorf("tree total %v, want %v", b.tree.total(), a.tree.total())
	}

	// Identical RNG streams must sample identical indices and weights.
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	_, idx1, w1 := src.Sample(r1, 32)
	_, idx2, w2 := dst.Sample(r2, 32)
	for i := range idx1 {
		if idx1[i] != idx2[i] || w1[i] != w2[i] {
			t.Fatalf("sample %d diverged: (%d, %v) vs (%d, %v)", i, idx1[i], w1[i], idx2[i], w2[i])
		}
	}

	// The restored ring keeps evicting where the original would.
	wantNext := (a.next + 1) % capacity
	dst.Add(tr(99))
	if b.next != wantNext {
		t.Errorf("post-restore eviction cursor %d, want %d", b.next, wantNext)
	}
}

// TestSnapshotRestorePartialBuffer pins the restore preconditions: a
// target that already holds experience is refused, whatever its fill
// level, and the refused target is left untouched.
func TestSnapshotRestorePartialBuffer(t *testing.T) {
	src, _ := NewPrioritized(8, 0.6, 0.4, 0)
	for i := 0; i < 3; i++ {
		src.Add(tr(float64(i)))
	}
	st := src.State()
	if rec := st.Shards[0]; len(rec.Data) != 3 || len(rec.Leaves) != 3 {
		t.Fatalf("partial snapshot sized %d/%d, want 3/3", len(rec.Data), len(rec.Leaves))
	}

	// A partially-filled snapshot restores into an empty buffer.
	empty, _ := NewPrioritized(8, 0.6, 0.4, 0)
	if err := empty.SetState(st); err != nil {
		t.Fatalf("partial snapshot rejected by empty buffer: %v", err)
	}
	if empty.Len() != 3 || empty.shards[0].next != 3 {
		t.Errorf("restored partial fill %d/next %d, want 3/3", empty.Len(), empty.shards[0].next)
	}

	// Any pre-existing experience refuses the restore.
	dirty, _ := NewPrioritized(8, 0.6, 0.4, 0)
	dirty.Add(tr(42))
	if err := dirty.SetState(st); err == nil {
		t.Fatal("restore into non-empty buffer accepted")
	}
	if dirty.Len() != 1 || dirty.shards[0].data[0].Reward != 42 {
		t.Error("refused restore mutated the target")
	}
}

// TestSnapshotCapacityMismatch pins the fit checks: snapshots from a
// larger buffer, torn Data/Leaves pairs, and corrupt leaf priorities
// are all refused.
func TestSnapshotCapacityMismatch(t *testing.T) {
	big, _ := NewPrioritized(16, 0.6, 0.4, 0)
	for i := 0; i < 12; i++ {
		big.Add(tr(float64(i)))
	}
	small, _ := NewPrioritized(8, 0.6, 0.4, 0)
	if err := small.SetState(big.State()); err == nil {
		t.Fatal("oversized snapshot accepted")
	}

	// A wrapped cursor beyond the target capacity is refused even when
	// the payload itself would fit.
	st := big.State()
	rec := &st.Shards[0]
	rec.Data, rec.Leaves, rec.Count = rec.Data[:4], rec.Leaves[:4], 4
	rec.Next = 12
	if err := small.SetState(st); err == nil {
		t.Fatal("out-of-range cursor accepted")
	}

	// Torn snapshots (Data/Leaves disagreeing with Count) are refused.
	torn := big.State()
	torn.Shards[0].Leaves = torn.Shards[0].Leaves[:len(torn.Shards[0].Leaves)-1]
	fresh, _ := NewPrioritized(16, 0.6, 0.4, 0)
	if err := fresh.SetState(torn); err == nil {
		t.Fatal("torn snapshot accepted")
	}

	// Corrupt leaves: NaN or negative priorities are refused.
	for _, bad := range []float64{math.NaN(), -1} {
		corrupt := big.State()
		corrupt.Shards[0].Leaves[2] = bad
		target, _ := NewPrioritized(16, 0.6, 0.4, 0)
		if err := target.SetState(corrupt); err == nil {
			t.Fatalf("corrupt leaf %v accepted", bad)
		}
	}
}

// TestShardedSnapshotRoundTrip covers the sharded analogue: contents
// and leaf priorities restore exactly per shard, restore refuses a
// shard-count mismatch and a non-empty target.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	src, err := NewSharded(16, 4, 0.6, 0.4, 1e-3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Overfill so at least one shard ring wraps.
	for i := 0; i < 23; i++ {
		src.AddWithPriority(tr(float64(i)), 0.5+float64(i))
	}
	st := src.State()

	dst, err := NewSharded(16, 4, 0.6, 0.4, 1e-3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.SetState(st); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored len %d, want %d", dst.Len(), src.Len())
	}
	for k := range src.shards {
		a, b := &src.shards[k], &dst.shards[k]
		if a.count != b.count || a.next != b.next || a.maxPrior != b.maxPrior {
			t.Fatalf("shard %d cursor state differs", k)
		}
		for i := 0; i < a.count; i++ {
			if a.tree.get(i) != b.tree.get(i) {
				t.Errorf("shard %d leaf %d: %v vs %v", k, i, b.tree.get(i), a.tree.get(i))
			}
			if a.data[i].Reward != b.data[i].Reward {
				t.Errorf("shard %d slot %d data differs", k, i)
			}
		}
	}

	// Shard-count mismatch is refused.
	other, _ := NewSharded(16, 2, 0.6, 0.4, 1e-3, 7)
	if err := other.SetState(st); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	// Non-empty target is refused.
	dirty, _ := NewSharded(16, 4, 0.6, 0.4, 1e-3, 7)
	dirty.Add(tr(1))
	if err := dirty.SetState(st); err == nil {
		t.Fatal("restore into non-empty sharded buffer accepted")
	}
	// Per-shard capacity mismatch is refused.
	tiny, _ := NewSharded(4, 4, 0.6, 0.4, 1e-3, 7)
	if err := tiny.SetState(st); err == nil {
		t.Fatal("per-shard capacity mismatch accepted")
	}
}

// oneShard is the one-shard buffer snapshot holding rec.
func oneShard(rec PrioritizedState) ShardedState {
	return ShardedState{Shards: []PrioritizedState{rec}, Beta: rec.Beta}
}

// snapshotOf builds the snapshot of a ring holding count transitions
// with the cursor at next.
func snapshotOf(count, next int) PrioritizedState {
	st := PrioritizedState{Next: next, Count: count, Beta: 0.4, MaxPrior: 1}
	for i := 0; i < count; i++ {
		st.Data = append(st.Data, tr(float64(i)))
		st.Leaves = append(st.Leaves, 1)
	}
	return st
}

// TestSetStateRejectsCorruptSnapshot: a snapshot is bytes from a
// checkpoint file. One whose cursor a ring of its fill level cannot
// have (reproduced before the fix: Next == capacity and Next < 0 were
// accepted and the next Add indexed out of range), whose fill level does
// not fit, or whose leaves are corrupt is refused at one shard and at
// two, the refused buffer is untouched — every shard of it, also when a
// later shard is the bad one — and still usable.
func TestSetStateRejectsCorruptSnapshot(t *testing.T) {
	const capacity = 4
	leaf := func(v float64) PrioritizedState {
		st := snapshotOf(3, 3)
		st.Leaves[1] = v
		return st
	}
	short := snapshotOf(3, 3)
	short.Leaves = short.Leaves[:2]
	cases := map[string]PrioritizedState{
		"cursor at capacity":          snapshotOf(capacity, capacity),
		"cursor past capacity":        snapshotOf(capacity, capacity+1),
		"negative cursor":             snapshotOf(capacity, -1),
		"negative cursor, not full":   snapshotOf(2, -1),
		"cursor behind the fill":      snapshotOf(3, 1),
		"cursor ahead of the fill":    snapshotOf(2, 3),
		"wrapped cursor, empty":       snapshotOf(0, 2),
		"negative count":              {Count: -1, Next: -1},
		"count past capacity":         snapshotOf(capacity+1, 0),
		"leaves shorter than data":    short,
		"NaN leaf":                    leaf(math.NaN()),
		"negative leaf":               leaf(-1),
		"negative infinity leaf":      leaf(math.Inf(-1)),
		"count without data (forged)": {Count: 2, Next: 2},
	}
	for name, st := range cases {
		p, _ := NewPrioritized(capacity, 0.6, 0.4, 0)
		if err := p.SetState(oneShard(st)); err == nil {
			t.Errorf("%s: one shard accepted it", name)
			continue
		}
		if p.Len() != 0 || p.shards[0].next != 0 || p.shards[0].tree.total() != 0 {
			t.Errorf("%s: refused snapshot changed the buffer", name)
		}
		for i := 0; i < 2*capacity; i++ {
			p.Add(tr(float64(i)))
		}

		// The same record as the LAST shard of an otherwise valid
		// sharded snapshot.
		s, _ := NewSharded(2*capacity, 2, 0.6, 0.4, 0, 1)
		if err := s.SetState(ShardedState{Shards: []PrioritizedState{snapshotOf(2, 2), st}, Beta: 0.4}); err == nil {
			t.Errorf("%s: two shards accepted it", name)
			continue
		}
		if s.Len() != 0 || s.shards[0].count != 0 || s.shards[0].tree.total() != 0 {
			t.Errorf("%s: refused snapshot left shard 0 restored", name)
		}
		for i := 0; i < 4*capacity; i++ {
			s.Add(tr(float64(i)))
		}
	}

	// The cursors a ring can have are all accepted.
	for _, st := range []PrioritizedState{snapshotOf(0, 0), snapshotOf(3, 3), snapshotOf(capacity, 0), snapshotOf(capacity, capacity-1)} {
		p, _ := NewPrioritized(capacity, 0.6, 0.4, 0)
		if err := p.SetState(oneShard(st)); err != nil {
			t.Errorf("count %d next %d: %v", st.Count, st.Next, err)
		}
		p.Add(tr(9))
	}
}

// FuzzReplaySetState: whatever a snapshot claims, a one-shard and a
// two-shard buffer either refuse it untouched or take it and go on
// working — adds across the
// wrap, samples, priority write-backs — without indexing outside their
// storage.
func FuzzReplaySetState(f *testing.F) {
	f.Add(3, 3, uint8(3), uint8(3), 1.0)
	f.Add(8, 0, uint8(8), uint8(8), 0.5)
	f.Add(8, 8, uint8(8), uint8(8), 1.0)
	f.Add(8, -1, uint8(8), uint8(8), 1.0)
	f.Add(2, 5, uint8(2), uint8(2), 1.0)
	f.Add(-1, -1, uint8(0), uint8(0), 0.0)
	f.Add(3, 3, uint8(3), uint8(2), 1.0)
	f.Add(3, 3, uint8(3), uint8(3), math.NaN())
	f.Add(3, 3, uint8(3), uint8(3), math.Inf(1))
	f.Fuzz(func(t *testing.T, count, next int, nData, nLeaves uint8, leaf float64) {
		const capacity = 8
		st := PrioritizedState{Next: next, Count: count, Beta: 0.4, MaxPrior: 1}
		for i := 0; i < int(nData%32); i++ {
			st.Data = append(st.Data, tr(float64(i)))
		}
		for i := 0; i < int(nLeaves%32); i++ {
			st.Leaves = append(st.Leaves, leaf)
		}
		rng := rand.New(rand.NewSource(1))
		drive := func(buf *Prioritized, accepted bool) {
			if !accepted && buf.Len() != 0 {
				t.Fatal("a refused snapshot left experience behind")
			}
			for i := 0; i < 3*capacity; i++ {
				buf.Add(tr(float64(i)))
				_, idx, _ := buf.SampleInto(rng, 4, nil, nil, nil)
				buf.UpdatePrioritiesBatch(idx, []float64{1, 2, 3, 4})
			}
			if buf.Len() > 2*capacity {
				t.Fatalf("buffer holds %d transitions", buf.Len())
			}
		}
		p, _ := NewPrioritized(capacity, 0.6, 0.4, 0)
		drive(p, p.SetState(oneShard(st)) == nil)
		s, _ := NewSharded(2*capacity, 2, 0.6, 0.4, 0, 1)
		drive(s, s.SetState(ShardedState{Shards: []PrioritizedState{snapshotOf(2, 2), st}, Beta: 0.4}) == nil)
	})
}
