package replay

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(0, 4, 0.6, 0.4, 0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewSharded(64, 0, 0.6, 0.4, 0, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewSharded(64, 4, -1, 0.4, 0, 1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewSharded(64, 4, 0.6, 1.5, 0, 1); err == nil {
		t.Error("beta > 1 accepted")
	}
	// More shards than capacity collapses to one slot per shard.
	s, err := NewSharded(3, 8, 0.6, 0.4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 3 {
		t.Errorf("shards = %d, want clamped to 3", s.NumShards())
	}
}

// TestShardedEvictionPerShard overfills the buffer and checks the
// ring invariants hold in every shard: no shard exceeds its capacity,
// the global count matches, and only live transitions are sampled.
func TestShardedEvictionPerShard(t *testing.T) {
	s, err := NewSharded(16, 4, 0.6, 0.4, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 40 single adds round-robin 10 into each 4-slot shard.
	for i := 0; i < 40; i++ {
		s.Add(tr(float64(i)))
	}
	if s.Len() != 16 {
		t.Errorf("len = %d, want 16", s.Len())
	}
	for k := range s.shards {
		sh := &s.shards[k]
		if sh.count != s.shardCap {
			t.Errorf("shard %d count = %d, want %d", k, sh.count, s.shardCap)
		}
		if sh.next < 0 || sh.next >= len(sh.data) {
			t.Errorf("shard %d ring cursor %d out of range", k, sh.next)
		}
	}
	// Round-robin single adds: shard k holds i ≡ k (mod 4), and each
	// 4-slot ring keeps only the last 4 of its 10 — rewards ≥ 24.
	samples, _, _ := s.Sample(rand.New(rand.NewSource(7)), 200)
	if len(samples) != 200 {
		t.Fatalf("sampled %d, want 200", len(samples))
	}
	for _, x := range samples {
		if x.Reward < 24 {
			t.Fatalf("evicted transition sampled: reward %v", x.Reward)
		}
	}
}

// TestShardedAddBatchChunks verifies batched ingest lands whole
// chunks and the count tracks growth, not evictions.
func TestShardedAddBatchChunks(t *testing.T) {
	s, err := NewSharded(32, 4, 0.6, 0.4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]Transition, 8)
	prios := make([]float64, 8)
	for c := 0; c < 10; c++ { // 80 transitions into 32 slots
		for i := range chunk {
			chunk[i] = tr(float64(c*8 + i))
			prios[i] = rand.New(rand.NewSource(int64(c*8+i))).Float64() + 0.1
		}
		s.AddBatch(chunk, prios)
	}
	if s.Len() != 32 {
		t.Errorf("len = %d, want 32", s.Len())
	}
	// nil and short priority slices are accepted.
	s.AddBatch(chunk, nil)
	s.AddBatch(chunk, prios[:3])
	if s.Len() != 32 {
		t.Errorf("len changed on overfull AddBatch: %d", s.Len())
	}
}

// TestShardedSamplingSkew mirrors TestPrioritizedSamplingSkew: one
// high-priority transition must dominate the draw.
func TestShardedSamplingSkew(t *testing.T) {
	s, err := NewSharded(64, 4, 1.0, 0.4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 63; i++ {
		s.AddWithPriority(tr(0), 0.01)
	}
	s.AddWithPriority(tr(99), 10)
	hits := 0
	const draws = 2000
	samples, _, _ := s.Sample(rand.New(rand.NewSource(5)), draws)
	for _, x := range samples {
		if x.Reward == 99 {
			hits++
		}
	}
	frac := float64(hits) / draws
	// Priority share = 10 / (10 + 63*0.01) ≈ 0.94.
	if frac < 0.7 {
		t.Errorf("high-priority sampled %.2f of draws, want >> uniform 1/64", frac)
	}
}

// TestShardedStratifiedParity is the distributional-equivalence check
// of striping: stratified sampling across eight shards must reproduce
// the one-shard buffer's sampling distribution within tolerance. Both
// buffers hold identical transitions and priorities; empirical
// marginals over many draws are compared by total variation distance,
// and both are compared to the exact p^α/Σp^α law.
func TestShardedStratifiedParity(t *testing.T) {
	const n = 128
	const batch = 32
	const rounds = 3000
	alpha := 0.6

	single, err := NewPrioritized(n, alpha, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(n, 8, alpha, 0.4, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	prioRng := rand.New(rand.NewSource(31))
	prios := make([]float64, n)
	for i := 0; i < n; i++ {
		prios[i] = prioRng.Float64()*2 + 0.01
		single.AddWithPriority(tr(float64(i)), prios[i])
		sharded.AddWithPriority(tr(float64(i)), prios[i])
	}

	count := func(draw func() []Transition) []float64 {
		counts := make([]float64, n)
		total := 0.0
		for r := 0; r < rounds; r++ {
			for _, x := range draw() {
				counts[int(x.Reward)]++
				total++
			}
		}
		for i := range counts {
			counts[i] /= total
		}
		return counts
	}
	rng := rand.New(rand.NewSource(77))
	sBuf := make([]Transition, 0, batch)
	iBuf := make([]int, 0, batch)
	wBuf := make([]float64, 0, batch)
	singleFreq := count(func() []Transition {
		s, _, _ := single.SampleInto(rng, batch, sBuf, iBuf, wBuf)
		return s
	})
	shardedFreq := count(func() []Transition {
		s, _, _ := sharded.SampleInto(rng, batch, sBuf, iBuf, wBuf)
		return s
	})

	// Exact proportional-prioritization law.
	theory := make([]float64, n)
	var mass float64
	for i := range theory {
		theory[i] = math.Pow(prios[i]+1e-4, alpha)
		mass += theory[i]
	}
	for i := range theory {
		theory[i] /= mass
	}

	tv := func(a, b []float64) float64 {
		var d float64
		for i := range a {
			d += math.Abs(a[i] - b[i])
		}
		return d / 2
	}
	if d := tv(shardedFreq, theory); d > 0.03 {
		t.Errorf("sharded vs theory: total variation %.4f > 0.03", d)
	}
	if d := tv(singleFreq, theory); d > 0.03 {
		t.Errorf("one shard vs theory: total variation %.4f > 0.03", d)
	}
	if d := tv(shardedFreq, singleFreq); d > 0.04 {
		t.Errorf("sharded vs one shard: total variation %.4f > 0.04", d)
	}
}

// TestShardedIndicesRoundTrip checks global indices decode to the
// sampled transition and drive priority write-back at the right slot.
func TestShardedIndicesRoundTrip(t *testing.T) {
	s, err := NewSharded(32, 4, 1.0, 0.4, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		s.AddWithPriority(tr(float64(i)), 1)
	}
	rng := rand.New(rand.NewSource(9))
	samples, indices, _ := s.Sample(rng, 64)
	for j, idx := range indices {
		k := idx / s.shardCap
		local := idx % s.shardCap
		got := s.shards[k].data[local]
		if got.Reward != samples[j].Reward {
			t.Fatalf("index %d decodes to reward %v, sampled %v", idx, got.Reward, samples[j].Reward)
		}
	}

	// Crush every priority except one sampled index; it must dominate.
	target := indices[0]
	tds := make([]float64, 32)
	all := make([]int, 32)
	for k := 0; k < 4; k++ {
		for l := 0; l < s.shardCap; l++ {
			all[k*s.shardCap+l] = k*s.shardCap + l
			tds[k*s.shardCap+l] = 1e-9
		}
	}
	s.UpdatePrioritiesBatch(all, tds)
	s.UpdatePrioritiesBatch([]int{target}, []float64{50})
	samples, _, _ = s.Sample(rng, 500)
	hits := 0
	want := s.shards[target/s.shardCap].data[target%s.shardCap].Reward
	for _, x := range samples {
		if x.Reward == want {
			hits++
		}
	}
	if float64(hits)/500 < 0.9 {
		t.Errorf("boosted index sampled only %d/500", hits)
	}
	// Out-of-range updates are ignored, not panics.
	s.UpdatePrioritiesBatch([]int{-1, 9999}, []float64{1, 1})
}

// TestShardedConcurrent hammers the buffer with the Ape-X access
// pattern — concurrent chunked producers, a sampling/updating
// consumer — and exists to run under -race.
func TestShardedConcurrent(t *testing.T) {
	s, err := NewSharded(1024, 8, 0.6, 0.4, 1e-5, 13)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			chunk := make([]Transition, 0, 8)
			prios := make([]float64, 0, 8)
			for i := 0; i < 400; i++ {
				x := Transition{State: []float64{rng.Float64()}, Reward: rng.NormFloat64()}
				switch i % 3 {
				case 0:
					s.Add(x)
				case 1:
					s.AddWithPriority(x, rng.Float64()*3)
				default:
					chunk = append(chunk, x)
					prios = append(prios, rng.Float64()*2)
					if len(chunk) == 8 {
						s.AddBatch(chunk, prios)
						chunk, prios = chunk[:0], prios[:0]
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples := make([]Transition, 0, 16)
		indices := make([]int, 0, 16)
		weights := make([]float64, 0, 16)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			sm, idx, _ := s.SampleInto(rng, 16, samples, indices, weights)
			if sm == nil {
				continue
			}
			tds := make([]float64, len(idx))
			for j := range tds {
				tds[j] = rng.NormFloat64()
			}
			s.UpdatePrioritiesBatch(idx, tds)
		}
	}()
	wg.Wait()
	if s.Len() == 0 || s.Len() > 1024 {
		t.Errorf("buffer len %d after concurrent load", s.Len())
	}
	if got := s.Beta(); got < 0.4 || got > 1 {
		t.Errorf("beta %v outside [0.4, 1]", got)
	}
}

// TestShardedSampleIntoZeroAlloc: the sampler goroutine runs this in
// the learner's steady state; it must not allocate with warm buffers.
func TestShardedSampleIntoZeroAlloc(t *testing.T) {
	s, err := NewSharded(512, 8, 0.6, 0.4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 512; i++ {
		s.AddWithPriority(Transition{State: []float64{float64(i)}}, rng.Float64())
	}
	samples := make([]Transition, 0, 32)
	indices := make([]int, 0, 32)
	weights := make([]float64, 0, 32)
	allocs := testing.AllocsPerRun(20, func() {
		sm, _, _ := s.SampleInto(rng, 32, samples, indices, weights)
		if len(sm) != 32 {
			t.Fatal("short sample")
		}
	})
	if allocs != 0 {
		t.Errorf("SampleInto allocates %v/op, want 0", allocs)
	}
}

// TestShardedBadPriorities mirrors TestPrioritizedBadPriorities at two
// shards.
func TestShardedBadPriorities(t *testing.T) {
	s, _ := NewSharded(8, 2, 0.6, 0.4, 0, 1)
	s.AddWithPriority(tr(1), math.NaN())
	s.AddWithPriority(tr(2), -5)
	s.AddWithPriority(tr(3), 0)
	samples, _, weights := s.Sample(rand.New(rand.NewSource(19)), 10)
	if len(samples) != 10 {
		t.Fatalf("sampling failed with sanitized priorities")
	}
	for _, w := range weights {
		if math.IsNaN(w) {
			t.Fatal("NaN importance weight")
		}
	}
}

// TestShardedEmptySample: an empty buffer returns nil, not junk.
func TestShardedEmptySample(t *testing.T) {
	s, _ := NewSharded(8, 2, 0.6, 0.4, 0, 1)
	if sm, _, _ := s.Sample(rand.New(rand.NewSource(23)), 5); sm != nil {
		t.Error("sample from empty buffer")
	}
}

// zeroSource makes every Float64 draw of its rand.Rand zero.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// TestShardedSampleSkipsEmptyShards: the walk draws only from a shard
// holding mass, also for a point no comparison places — 0·∞ is NaN
// when an infinite priority makes the segment infinite — instead of
// indexing the empty shard it starts in.
func TestShardedSampleSkipsEmptyShards(t *testing.T) {
	s, _ := NewSharded(8, 2, 0.6, 0.4, 0, 1)
	s.ingest.Store(1) // the next add lands in shard 1
	s.AddWithPriority(tr(0), math.Inf(1))
	if s.shards[0].count != 0 || !math.IsInf(s.shards[1].tree.get(0), 1) {
		t.Fatal("setup: want shard 0 empty and shard 1's one leaf infinite")
	}
	_, indices, _ := s.Sample(rand.New(zeroSource{}), 4)
	for j, idx := range indices {
		if idx != s.shardCap {
			t.Fatalf("draw %d took index %d, want shard 1's only transition at %d", j, idx, s.shardCap)
		}
	}
}

// BenchmarkShardedSample measures the stratified sampling hot path at
// the learner's batch size.
func BenchmarkShardedSample(b *testing.B) {
	s, err := NewSharded(1<<16, 8, 0.6, 0.4, 1e-5, 7)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<16; i++ {
		s.AddWithPriority(Transition{Reward: rng.NormFloat64()}, rng.Float64()*2)
	}
	samples := make([]Transition, 0, 32)
	indices := make([]int, 0, 32)
	weights := make([]float64, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(rng, 32, samples, indices, weights)
	}
}

// BenchmarkShardedAddBatch measures the chunked ingest path actors
// use (8-transition staging flush).
func BenchmarkShardedAddBatch(b *testing.B) {
	s, err := NewSharded(1<<16, 8, 0.6, 0.4, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]Transition, 8)
	prios := make([]float64, 8)
	for i := range chunk {
		chunk[i] = Transition{Reward: float64(i)}
		prios[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddBatch(chunk, prios)
	}
}
