package replay

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The tests' transitions, tr(r), have one-wide states and actions.
const trDim = 1

// stripe is one stripe of a hand-made snapshot: its header and leaves,
// the rows holding row(0), row(1), …, or tr(0), tr(1), … when row is
// nil.
type stripe struct {
	count, next int
	maxPrior    float64
	leaves      []float64
	row         func(i int) Transition
}

// snapshotBytes lays out a snapshot of these stripes as AppendState
// does.
func snapshotBytes(beta float64, ingest uint64, stripes ...stripe) []byte {
	le := binary.LittleEndian
	f64 := func(b []byte, vs ...float64) []byte {
		for _, v := range vs {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	b := le.AppendUint32(nil, uint32(len(stripes)))
	b = f64(b, beta)
	b = le.AppendUint64(b, ingest)
	for _, s := range stripes {
		b = le.AppendUint64(b, uint64(s.count))
		b = le.AppendUint64(b, uint64(s.next))
		b = f64(b, s.maxPrior)
	}
	for _, s := range stripes {
		for i, leaf := range s.leaves {
			t := tr(float64(i))
			if s.row != nil {
				t = s.row(i)
			}
			b = f64(b, leaf, t.State[0], t.Action[0], t.Reward, t.NextState[0])
			b = append(b, 0)
		}
	}
	return b
}

// snapshotOf is one stripe holding count transitions at leaf 1 with the
// cursor at next.
func snapshotOf(count, next int) []byte {
	s := stripe{count: count, next: next, maxPrior: 1}
	for i := 0; i < count; i++ {
		s.leaves = append(s.leaves, 1)
	}
	return snapshotBytes(0.4, 0, s)
}

// decoded is a snapshot's fields read off its bytes (tr widths).
type decoded struct {
	beta   float64
	ingest uint64
	// per stripe
	count, next []int
	maxPrior    []float64
	rewards     [][]float64
	leaves      [][]float64
}

func decodeSnapshot(t *testing.T, b []byte, capacity int) decoded {
	t.Helper()
	state, k, rest, err := SplitState(b, capacity, trDim, trDim)
	if err != nil || len(rest) != 0 {
		t.Fatalf("snapshot does not split whole: %v", err)
	}
	le := binary.LittleEndian
	f64 := func(at int) float64 { return math.Float64frombits(le.Uint64(state[at:])) }
	d := decoded{beta: f64(4), ingest: le.Uint64(state[12:])}
	rows := snapshotHeaderLen + stripeHeaderLen*k
	width := RowLen(trDim, trDim)
	for i := 0; i < k; i++ {
		h := snapshotHeaderLen + stripeHeaderLen*i
		count := int(le.Uint64(state[h:]))
		d.count = append(d.count, count)
		d.next = append(d.next, int(le.Uint64(state[h+8:])))
		d.maxPrior = append(d.maxPrior, f64(h+16))
		var rewards, leaves []float64
		for j := 0; j < count; j++ {
			leaves = append(leaves, f64(rows))
			rewards = append(rewards, f64(rows+8*(1+2*trDim)))
			rows += width
		}
		d.rewards = append(d.rewards, rewards)
		d.leaves = append(d.leaves, leaves)
	}
	return d
}

// snapshot is b's AppendState at tr widths.
func snapshot(t testing.TB, b *Prioritized) []byte {
	t.Helper()
	st, err := b.AppendState(nil, trDim, trDim)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

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

	st := snapshot(t, src)
	dst, err := NewPrioritized(capacity, 0.6, 0.4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadState(st, trDim, trDim); err != nil {
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
	if again := snapshot(t, dst); !bytes.Equal(again, st) {
		t.Error("the restored buffer's snapshot differs from the one it was restored from")
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
	st := snapshot(t, src)
	if d := decodeSnapshot(t, st, 8); d.count[0] != 3 || len(d.leaves[0]) != 3 {
		t.Fatalf("partial snapshot holds %d rows of %d, want 3 of 3", len(d.leaves[0]), d.count[0])
	}

	// A partially-filled snapshot restores into an empty buffer.
	empty, _ := NewPrioritized(8, 0.6, 0.4, 0)
	if err := empty.LoadState(st, trDim, trDim); err != nil {
		t.Fatalf("partial snapshot rejected by empty buffer: %v", err)
	}
	if empty.Len() != 3 || empty.shards[0].next != 3 {
		t.Errorf("restored partial fill %d/next %d, want 3/3", empty.Len(), empty.shards[0].next)
	}

	// Any pre-existing experience refuses the restore.
	dirty, _ := NewPrioritized(8, 0.6, 0.4, 0)
	dirty.Add(tr(42))
	if err := dirty.LoadState(st, trDim, trDim); err == nil {
		t.Fatal("restore into non-empty buffer accepted")
	}
	if dirty.Len() != 1 || dirty.shards[0].data[0].Reward != 42 {
		t.Error("refused restore mutated the target")
	}
}

// TestSnapshotCapacityMismatch pins the fit checks: snapshots from a
// larger buffer, torn rows, other widths and corrupt leaf priorities
// are all refused.
func TestSnapshotCapacityMismatch(t *testing.T) {
	big, _ := NewPrioritized(16, 0.6, 0.4, 0)
	for i := 0; i < 12; i++ {
		big.Add(tr(float64(i)))
	}
	st := snapshot(t, big)
	small, _ := NewPrioritized(8, 0.6, 0.4, 0)
	if err := small.LoadState(st, trDim, trDim); err == nil {
		t.Fatal("oversized snapshot accepted")
	}

	// A wrapped cursor beyond the target capacity is refused even when
	// the payload itself would fit.
	wrapped := snapshotBytes(0.4, 0, stripe{count: 4, next: 12, maxPrior: 1, leaves: []float64{1, 1, 1, 1}})
	if err := small.LoadState(wrapped, trDim, trDim); err == nil {
		t.Fatal("out-of-range cursor accepted")
	}

	// Torn snapshots (rows disagreeing with the count) and the right
	// bytes read at other widths are refused.
	fresh, _ := NewPrioritized(16, 0.6, 0.4, 0)
	for name, bad := range map[string][]byte{
		"a row short":   st[:len(st)-1],
		"a byte extra":  append(bytes.Clone(st), 0),
		"no rows":       st[:snapshotHeaderLen+stripeHeaderLen],
		"header only":   st[:snapshotHeaderLen],
		"under a frame": st[:3],
	} {
		if err := fresh.LoadState(bad, trDim, trDim); err == nil {
			t.Fatalf("%s: torn snapshot accepted", name)
		}
	}
	if err := fresh.LoadState(st, 2, trDim); err == nil {
		t.Fatal("a snapshot was read at another state width")
	}
	if _, err := big.AppendState(nil, 2, trDim); err == nil {
		t.Fatal("a snapshot was written at another state width")
	}

	// Corrupt leaves: NaN or negative priorities are refused.
	for _, bad := range []float64{math.NaN(), -1} {
		corrupt := bytes.Clone(st)
		at := snapshotHeaderLen + stripeHeaderLen + 2*RowLen(trDim, trDim)
		binary.LittleEndian.PutUint64(corrupt[at:], math.Float64bits(bad))
		target, _ := NewPrioritized(16, 0.6, 0.4, 0)
		if err := target.LoadState(corrupt, trDim, trDim); err == nil {
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
	st := snapshot(t, src)

	dst, err := NewSharded(16, 4, 0.6, 0.4, 1e-3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadState(st, trDim, trDim); err != nil {
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
	if err := other.LoadState(st, trDim, trDim); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	// Non-empty target is refused.
	dirty, _ := NewSharded(16, 4, 0.6, 0.4, 1e-3, 7)
	dirty.Add(tr(1))
	if err := dirty.LoadState(st, trDim, trDim); err == nil {
		t.Fatal("restore into non-empty sharded buffer accepted")
	}
	// Per-shard capacity mismatch is refused.
	tiny, _ := NewSharded(4, 4, 0.6, 0.4, 1e-3, 7)
	if err := tiny.LoadState(st, trDim, trDim); err == nil {
		t.Fatal("per-shard capacity mismatch accepted")
	}
}

// corruptStripes are stripes no ring of capacity 4 can hold, by name.
func corruptStripes(capacity int) map[string]stripe {
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	at := func(count, next int) stripe {
		return stripe{count: count, next: next, maxPrior: 1, leaves: ones(count)}
	}
	leaf := func(v float64) stripe {
		s := at(3, 3)
		s.leaves[1] = v
		return s
	}
	spoilt := func(spoil func(t *Transition)) stripe {
		s := at(3, 3)
		s.row = func(i int) Transition {
			t := tr(float64(i))
			if i == 1 {
				spoil(&t)
			}
			return t
		}
		return s
	}
	return map[string]stripe{
		"cursor at capacity":          at(capacity, capacity),
		"cursor past capacity":        at(capacity, capacity+1),
		"negative cursor":             at(capacity, -1),
		"negative cursor, not full":   at(2, -1),
		"cursor behind the fill":      at(3, 1),
		"cursor ahead of the fill":    at(2, 3),
		"wrapped cursor, empty":       at(0, 2),
		"negative count":              {count: -1, next: -1},
		"count past capacity":         at(capacity+1, 0),
		"leaves shorter than count":   {count: 3, next: 3, maxPrior: 1, leaves: ones(2)},
		"NaN leaf":                    leaf(math.NaN()),
		"negative leaf":               leaf(-1),
		"negative infinity leaf":      leaf(math.Inf(-1)),
		"infinite leaf":               leaf(math.Inf(1)),
		"count without data (forged)": {count: 2, next: 2},
		"NaN state":                   spoilt(func(t *Transition) { t.State[0] = math.NaN() }),
		"infinite next state":         spoilt(func(t *Transition) { t.NextState[0] = math.Inf(-1) }),
		"NaN reward":                  spoilt(func(t *Transition) { t.Reward = math.NaN() }),
	}
}

// TestSetStateRejectsCorruptSnapshot: a snapshot is bytes from a
// checkpoint file. One whose cursor a ring of its fill level cannot
// have (reproduced before the fix: Next == capacity and Next < 0 were
// accepted and the next Add indexed out of range), whose fill level does
// not fit, whose rows are missing, or whose rows hold a float ReadRows
// refuses (a NaN, infinite or negative leaf, a non-finite state, reward
// or next state) is refused at one shard and at two, the refused buffer is untouched —
// every shard of it, also when a later shard is the bad one — and still
// usable.
func TestSetStateRejectsCorruptSnapshot(t *testing.T) {
	const capacity = 4
	good := stripe{count: 2, next: 2, maxPrior: 1, leaves: []float64{1, 1}}
	for name, st := range corruptStripes(capacity) {
		p, _ := NewPrioritized(capacity, 0.6, 0.4, 0)
		if err := p.LoadState(snapshotBytes(0.4, 0, st), trDim, trDim); err == nil {
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
		if err := s.LoadState(snapshotBytes(0.4, 0, good, st), trDim, trDim); err == nil {
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
	for _, c := range [][2]int{{0, 0}, {3, 3}, {capacity, 0}, {capacity, capacity - 1}} {
		p, _ := NewPrioritized(capacity, 0.6, 0.4, 0)
		if err := p.LoadState(snapshotOf(c[0], c[1]), trDim, trDim); err != nil {
			t.Errorf("count %d next %d: %v", c[0], c[1], err)
		}
		p.Add(tr(9))
	}
}

// FuzzReplaySetState: whatever bytes a snapshot holds, a one-shard and
// a two-shard buffer either refuse them untouched or take them and go
// on working — adds across the wrap, samples, priority write-backs —
// without indexing outside their storage. An accepted snapshot writes
// back byte for byte. Seeds (f.Add) are sound one- and two-stripe
// snapshots and the corrupt stripes TestSetStateRejectsCorruptSnapshot
// refuses.
func FuzzReplaySetState(f *testing.F) {
	const capacity = 8
	f.Add(snapshotOf(3, 3))
	f.Add(snapshotOf(8, 0))
	f.Add(snapshotOf(8, 7))
	f.Add(snapshotOf(0, 0))
	f.Add(snapshotBytes(0.4, 5, stripe{count: 2, next: 2, maxPrior: 1, leaves: []float64{1, 2}}, stripe{count: 3, next: 3, maxPrior: 2, leaves: []float64{0, 1, math.Inf(1)}}))
	for _, name := range []string{"cursor past capacity", "negative count", "leaves shorter than count", "NaN leaf", "count without data (forged)"} {
		f.Add(snapshotBytes(0.4, 0, corruptStripes(capacity)[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(1))
		drive := func(buf *Prioritized, err error) {
			if err != nil {
				if buf.Len() != 0 {
					t.Fatal("a refused snapshot left experience behind")
				}
			} else if again := snapshot(t, buf); !bytes.Equal(again, data) {
				t.Fatal("an accepted snapshot does not write back byte for byte")
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
		drive(p, p.LoadState(data, trDim, trDim))
		s, _ := NewSharded(2*capacity, 2, 0.6, 0.4, 0, 1)
		drive(s, s.LoadState(data, trDim, trDim))
	})
}
