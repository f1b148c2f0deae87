package replay

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func tr(r float64) Transition {
	return Transition{State: []float64{r}, Action: []float64{0}, Reward: r, NextState: []float64{r + 1}}
}

func TestUniformBasics(t *testing.T) {
	u, err := NewUniform(4)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 0 {
		t.Error("fresh buffer non-empty")
	}
	rng := rand.New(rand.NewSource(1))
	if got := u.Sample(rng, 3); got != nil {
		t.Error("sample from empty buffer")
	}
	for i := 0; i < 6; i++ { // overfill: oldest evicted
		u.Add(tr(float64(i)))
	}
	if u.Len() != 4 {
		t.Errorf("len = %d, want 4", u.Len())
	}
	s := u.Sample(rng, 100)
	if len(s) != 100 {
		t.Fatalf("sample = %d", len(s))
	}
	for _, x := range s {
		if x.Reward < 2 || x.Reward > 5 {
			t.Fatalf("evicted transition sampled: %v", x.Reward)
		}
	}
	if _, err := NewUniform(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestSumTreePrefixSearch(t *testing.T) {
	s := newSumTree(4)
	s.set(0, 1)
	s.set(1, 2)
	s.set(2, 3)
	s.set(3, 4)
	if s.total() != 10 {
		t.Fatalf("total = %v", s.total())
	}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.99, 0}, {1, 1}, {2.99, 1}, {3, 2}, {5.99, 2}, {6, 3}, {9.99, 3},
	}
	for _, c := range cases {
		if got := s.find(c.v); got != c.want {
			t.Errorf("find(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Updating a leaf refreshes sums.
	s.set(0, 5)
	if s.total() != 14 {
		t.Errorf("total after update = %v", s.total())
	}
}

// Property: sum tree total always equals the sum of leaf priorities.
func TestSumTreeInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newSumTree(8)
		model := make([]float64, 8)
		for i, op := range ops {
			idx := int(op % 8)
			p := float64(op%13) + 0.5
			s.set(idx, p)
			model[idx] = p
			_ = i
			var want float64
			for _, v := range model {
				want += v
			}
			if math.Abs(s.total()-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrioritizedValidation(t *testing.T) {
	if _, err := NewPrioritized(0, 0.6, 0.4, 1e-4); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewPrioritized(8, -1, 0.4, 0); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewPrioritized(8, 0.6, 1.5, 0); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestPrioritizedSamplingSkew(t *testing.T) {
	p, err := NewPrioritized(64, 1.0, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One high-priority transition among many low-priority ones.
	for i := 0; i < 63; i++ {
		p.AddWithPriority(tr(0), 0.01)
	}
	p.AddWithPriority(tr(99), 10)
	rng := rand.New(rand.NewSource(5))
	hits := 0
	const draws = 2000
	samples, _, _ := p.Sample(rng, draws)
	for _, s := range samples {
		if s.Reward == 99 {
			hits++
		}
	}
	frac := float64(hits) / draws
	// Priority share = 10 / (10 + 63*0.01) ≈ 0.94.
	if frac < 0.7 {
		t.Errorf("high-priority sampled %.2f of draws, want >> uniform 1/64", frac)
	}
}

func TestPrioritizedImportanceWeights(t *testing.T) {
	p, _ := NewPrioritized(16, 1.0, 0.5, 0)
	for i := 0; i < 8; i++ {
		p.AddWithPriority(tr(float64(i)), float64(i+1))
	}
	rng := rand.New(rand.NewSource(9))
	samples, indices, weights := p.Sample(rng, 32)
	if len(samples) != 32 || len(indices) != 32 || len(weights) != 32 {
		t.Fatalf("sample sizes %d/%d/%d", len(samples), len(indices), len(weights))
	}
	maxW := 0.0
	for _, w := range weights {
		if w <= 0 || w > 1+1e-9 {
			t.Fatalf("IS weight %v outside (0,1]", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	if math.Abs(maxW-1) > 1e-9 {
		t.Errorf("max weight = %v, want normalized to 1", maxW)
	}
}

func TestPrioritizedUpdateChangesSampling(t *testing.T) {
	p, _ := NewPrioritized(8, 1.0, 0.4, 0)
	for i := 0; i < 8; i++ {
		p.AddWithPriority(tr(float64(i)), 1)
	}
	// Crush all priorities except index 3.
	indices := []int{0, 1, 2, 3, 4, 5, 6, 7}
	tds := []float64{0, 0, 0, 50, 0, 0, 0, 0}
	p.UpdatePrioritiesBatch(indices, tds)
	rng := rand.New(rand.NewSource(11))
	samples, _, _ := p.Sample(rng, 500)
	hits := 0
	for _, s := range samples {
		if s.Reward == 3 {
			hits++
		}
	}
	if float64(hits)/500 < 0.9 {
		t.Errorf("updated priority sampled only %d/500", hits)
	}
	// Out-of-range updates are ignored, not panics.
	p.UpdatePrioritiesBatch([]int{-1, 999}, []float64{1, 1})
}

func TestPrioritizedBetaAnneals(t *testing.T) {
	p, _ := NewPrioritized(8, 0.6, 0.4, 0.1)
	p.Add(tr(1))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 7; i++ {
		p.Sample(rng, 4)
	}
	if math.Abs(p.Beta()-1.0) > 1e-9 {
		t.Errorf("beta = %v, want annealed to 1", p.Beta())
	}
}

func TestPrioritizedEviction(t *testing.T) {
	p, _ := NewPrioritized(4, 0.6, 0.4, 0)
	for i := 0; i < 10; i++ {
		p.Add(tr(float64(i)))
	}
	if p.Len() != 4 {
		t.Errorf("len = %d, want 4", p.Len())
	}
	rng := rand.New(rand.NewSource(17))
	samples, _, _ := p.Sample(rng, 50)
	for _, s := range samples {
		if s.Reward < 6 {
			t.Fatalf("evicted transition sampled: %v", s.Reward)
		}
	}
}

func TestPrioritizedBadPriorities(t *testing.T) {
	p, _ := NewPrioritized(4, 0.6, 0.4, 0)
	p.AddWithPriority(tr(1), math.NaN())
	p.AddWithPriority(tr(2), -5)
	p.AddWithPriority(tr(3), 0)
	rng := rand.New(rand.NewSource(19))
	samples, _, weights := p.Sample(rng, 10)
	if len(samples) != 10 {
		t.Fatalf("sampling failed with sanitized priorities")
	}
	for _, w := range weights {
		if math.IsNaN(w) {
			t.Fatal("NaN importance weight")
		}
	}
}

func TestPrioritizedEmptySample(t *testing.T) {
	p, _ := NewPrioritized(4, 0.6, 0.4, 0)
	rng := rand.New(rand.NewSource(23))
	if s, _, _ := p.Sample(rng, 5); s != nil {
		t.Error("sample from empty buffer")
	}
}

// TestPrioritizedConcurrent hammers the buffer from concurrent
// producers (Add/AddWithPriority) and a consumer running
// Sample/UpdatePriorities — the Ape-X access pattern. It exists to
// run under -race; correctness checks are minimal.
func TestPrioritizedConcurrent(t *testing.T) {
	p, err := NewPrioritized(1024, 0.6, 0.4, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				tr := Transition{State: []float64{rng.Float64()}, Action: []float64{1}, Reward: rng.NormFloat64()}
				if i%2 == 0 {
					p.Add(tr)
				} else {
					p.AddWithPriority(tr, rng.Float64()*3)
				}
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		samples := make([]Transition, 0, 16)
		indices := make([]int, 0, 16)
		weights := make([]float64, 0, 16)
		for i := 0; i < 400; i++ {
			s, idx, w := p.SampleInto(rng, 16, samples, indices, weights)
			if s == nil {
				continue
			}
			tds := make([]float64, len(idx))
			for j := range tds {
				tds[j] = rng.NormFloat64()
			}
			p.UpdatePrioritiesBatch(idx, tds)
			_ = w
		}
	}()
	wg.Wait()
	if p.Len() == 0 || p.Len() > 1024 {
		t.Errorf("buffer len %d after concurrent load", p.Len())
	}
}

// SampleInto must not allocate once the caller's buffers are warm.
func TestSampleIntoZeroAlloc(t *testing.T) {
	p, err := NewPrioritized(512, 0.6, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 512; i++ {
		p.AddWithPriority(Transition{State: []float64{float64(i)}}, rng.Float64())
	}
	samples := make([]Transition, 0, 32)
	indices := make([]int, 0, 32)
	weights := make([]float64, 0, 32)
	allocs := testing.AllocsPerRun(20, func() {
		s, _, _ := p.SampleInto(rng, 32, samples, indices, weights)
		if len(s) != 32 {
			t.Fatal("short sample")
		}
	})
	if allocs != 0 {
		t.Errorf("SampleInto allocates %v/op, want 0", allocs)
	}
}

// BenchmarkPrioritizedSample measures the learner's sampling hot path
// (allocation-free via SampleInto) at the default batch size.
func BenchmarkPrioritizedSample(b *testing.B) {
	p, err := NewPrioritized(1<<16, 0.6, 0.4, 1e-5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<16; i++ {
		p.AddWithPriority(Transition{Reward: rng.NormFloat64()}, rng.Float64()*2)
	}
	samples := make([]Transition, 0, 32)
	indices := make([]int, 0, 32)
	weights := make([]float64, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SampleInto(rng, 32, samples, indices, weights)
	}
}

// TestIdleBufferHoldsNoStorage: capacity is a bound, not a
// reservation. A buffer nobody has added to — asked for its length,
// sampled, snapshotted and restored from an empty snapshot — holds no
// ring and no sum tree; the first add allocates both at a few slots,
// and a full buffer's tree holds its capacity's power of two of
// leaves, never more.
func TestIdleBufferHoldsNoStorage(t *testing.T) {
	p, _ := NewPrioritized(1<<16, 0.6, 0.4, 1e-5)
	s, _ := NewSharded(1<<16, 4, 0.6, 0.4, 1e-5, 1)
	u, _ := NewUniform(1 << 16)
	rng := rand.New(rand.NewSource(1))
	if got, _, _ := p.Sample(rng, 8); got != nil {
		t.Error("empty prioritized buffer sampled something")
	}
	if got, _, _ := s.SampleInto(rng, 8, nil, nil, nil); got != nil {
		t.Error("empty sharded buffer sampled something")
	}
	if err := p.LoadState(snapshot(t, p), trDim, trDim); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(snapshot(t, s), trDim, trDim); err != nil {
		t.Fatal(err)
	}
	if p.Len()+s.Len()+u.Len() != 0 || u.data != nil {
		t.Error("an idle buffer holds experience or storage")
	}
	for _, b := range []*Prioritized{p, s} {
		for k := range b.shards {
			if b.shards[k].data != nil || b.shards[k].tree.tree != nil {
				t.Errorf("idle %d-shard buffer: shard %d allocated storage", b.NumShards(), k)
			}
		}
	}
	p.Add(tr(1))
	u.Add(tr(1))
	if one := &p.shards[0]; len(one.tree.tree) > 2*minTreeLeaves || cap(one.data) >= 1<<10 || cap(u.data) >= 1<<10 {
		t.Errorf("after one add: tree %d nodes, rings %d and %d slots", len(one.tree.tree), cap(one.data), cap(u.data))
	}
	// A full ring holds exactly its capacity, and its tree the power of
	// two above it.
	small, _ := NewPrioritized(300, 0.6, 0.4, 0)
	for i := 0; i < 1000; i++ {
		small.Add(tr(float64(i)))
	}
	if ring := small.shards[0].data; len(ring) != 300 || cap(ring) != 300 {
		t.Errorf("full 300-slot ring holds %d slots in a %d-slot array", len(ring), cap(ring))
	}
	if tree := &small.shards[0].tree; tree.n != 512 || len(tree.tree) != 2*512 {
		t.Errorf("full 300-slot buffer's tree holds %d leaves in %d nodes, want 512 in 1024", tree.n, len(tree.tree))
	}
}

// TestReleasedBufferHoldsNoStorage: a released buffer — one stripe and
// four, filled, sampled and written back first — holds no experience,
// no ring and no tree, and keeps β, the ingest cursor and each stripe's
// maximal priority. Refilled, it draws what a new buffer restored from
// its snapshot draws, bit for bit. A released Uniform holds no ring.
func TestReleasedBufferHoldsNoStorage(t *testing.T) {
	fill := func(b *Prioritized, from int) {
		for i := from; i < from+300; i += 3 {
			b.AddBatch([]Transition{tr(float64(i)), tr(float64(i + 1)), tr(float64(i + 2))}, []float64{float64(i%7) + 0.5})
		}
	}
	for _, shards := range []int{1, 4} {
		p, _ := NewSharded(1<<10, shards, 0.6, 0.4, 1e-3, 1)
		rng := rand.New(rand.NewSource(int64(shards)))
		fill(p, 0)
		_, idx, _ := p.Sample(rng, 32)
		errs := make([]float64, len(idx))
		for i := range errs {
			errs[i] = 0.9 * float64(i)
		}
		p.UpdatePrioritiesBatch(idx, errs)
		beta, ingest := p.beta, p.ingest.Load()
		maxPrior := make([]float64, shards)
		for k := range p.shards {
			maxPrior[k] = p.shards[k].maxPrior
		}

		p.Release()
		if p.Len() != 0 || p.beta != beta || p.ingest.Load() != ingest {
			t.Errorf("%d shards: released buffer holds %d, β %v (was %v), ingest %d (was %d)", shards, p.Len(), p.beta, beta, p.ingest.Load(), ingest)
		}
		for k := range p.shards {
			sh := &p.shards[k]
			if sh.data != nil || sh.count != 0 || sh.next != 0 || sh.tree.tree != nil || sh.tree.n != 0 || sh.tree.total() != 0 {
				t.Errorf("%d shards: released shard %d holds %d slots (%d stored, next %d) and %d tree nodes", shards, k, cap(sh.data), sh.count, sh.next, len(sh.tree.tree))
			}
			if sh.maxPrior != maxPrior[k] {
				t.Errorf("%d shards: shard %d max priority %v, was %v", shards, k, sh.maxPrior, maxPrior[k])
			}
		}
		if got, _, _ := p.Sample(rng, 8); got != nil {
			t.Errorf("%d shards: released buffer sampled something", shards)
		}

		ref, _ := NewSharded(1<<10, shards, 0.6, 0.4, 1e-3, 1)
		if err := ref.LoadState(snapshot(t, p), trDim, trDim); err != nil {
			t.Fatal(err)
		}
		fill(p, 1000)
		fill(ref, 1000)
		r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		for round := 0; round < 5; round++ {
			s1, i1, w1 := p.Sample(r1, 16)
			s2, i2, w2 := ref.Sample(r2, 16)
			for i := range s2 {
				if s1[i].Reward != s2[i].Reward || i1[i] != i2[i] || math.Float64bits(w1[i]) != math.Float64bits(w2[i]) {
					t.Fatalf("%d shards, round %d, draw %d: refilled buffer drew %v@%d w %v, restored one %v@%d w %v",
						shards, round, i, s1[i].Reward, i1[i], w1[i], s2[i].Reward, i2[i], w2[i])
				}
			}
		}
	}
	u, _ := NewUniform(64)
	for i := 0; i < 100; i++ {
		u.Add(tr(float64(i)))
	}
	u.Release()
	if u.Len() != 0 || u.data != nil || u.next != 0 {
		t.Errorf("released uniform buffer holds %d of %d slots, next %d", u.Len(), cap(u.data), u.next)
	}
}

// TestReleaseDuringIngest: releases racing adders and a sampler leave
// the count equal to what the stripes hold once the adders are done.
func TestReleaseDuringIngest(t *testing.T) {
	p, _ := NewSharded(1<<12, 4, 0.6, 0.4, 1e-5, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.AddBatch([]Transition{tr(float64(i)), tr(float64(i + 1))}, nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			_, _, weights := p.Sample(rng, 8)
			for _, w := range weights {
				if !(w > 0 && w <= 1) {
					t.Errorf("weight %v outside (0, 1]", w)
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		p.Release()
	}
	wg.Wait()
	held := 0
	for k := range p.shards {
		held += p.shards[k].count
	}
	if p.Len() != held {
		t.Errorf("count %d, stripes hold %d", p.Len(), held)
	}
}

// Sample is SampleInto with fresh buffers.
func (u *Uniform) Sample(rng *rand.Rand, n int) []Transition {
	if n <= 0 {
		return nil
	}
	return u.SampleInto(rng, n, make([]Transition, 0, n))
}

// AddWithPriority stores one transition with an explicit priority: a
// one-transition AddBatch.
func (p *Prioritized) AddWithPriority(t Transition, priority float64) {
	p.AddBatch([]Transition{t}, []float64{priority})
}

// Beta reports the current importance-sampling exponent.
func (p *Prioritized) Beta() float64 {
	p.sampleMu.Lock()
	defer p.sampleMu.Unlock()
	return p.beta
}

// Sample is SampleInto with fresh buffers.
func (p *Prioritized) Sample(rng *rand.Rand, n int) ([]Transition, []int, []float64) {
	if n <= 0 {
		return nil, nil, nil
	}
	return p.SampleInto(rng, n,
		make([]Transition, 0, n), make([]int, 0, n), make([]float64, 0, n))
}
