package ddpg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// fillAgent seeds an agent's replay with random transitions.
func fillAgent(t testing.TB, a *Agent, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	cfg := a.Config()
	for i := 0; i < n; i++ {
		s := make([]float64, cfg.StateDim)
		act := make([]float64, cfg.ActionDim)
		ns := make([]float64, cfg.StateDim)
		for j := range s {
			s[j] = rng.NormFloat64()
			ns[j] = rng.NormFloat64()
		}
		for j := range act {
			act[j] = 2*rng.Float64() - 1
		}
		a.Observe(replay.Transition{State: s, Action: act, Reward: rng.NormFloat64(), NextState: ns})
	}
}

// TestLearnBatchLearns drives the fused prefetcher-path update on a
// sharded replay end to end: externally sampled minibatch in,
// finite loss, a bumped learn-step counter and annealed beta out.
func TestLearnBatchLearns(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.Hidden = []int{16, 16}
	cfg.BatchSize = 8
	cfg.PERBetaInc = 1e-3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 4, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplay(sharded); err != nil {
		t.Fatal(err)
	}
	fillAgent(t, a, 64)

	rng := rand.New(rand.NewSource(7))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	// β is the snapshot's float64 after its uint32 stripe count.
	beta := func() float64 {
		st, err := sharded.AppendState(nil, cfg.StateDim, cfg.ActionDim)
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(st[4:]))
	}
	betaBefore := beta()
	for i := 0; i < 20; i++ {
		s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
		if len(s) != cfg.BatchSize {
			t.Fatalf("sampled %d, want %d", len(s), cfg.BatchSize)
		}
		loss := a.LearnBatch(s, idx, w)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", i, loss)
		}
	}
	if got := a.LearnSteps(); got != 20 {
		t.Errorf("learn steps = %d, want 20", got)
	}
	if beta() <= betaBefore {
		t.Error("beta did not anneal through the external sampling path")
	}
	// Empty and oversized batches are handled.
	if loss := a.LearnBatch(nil, nil, nil); loss != 0 {
		t.Errorf("empty batch loss = %v", loss)
	}
}

// The two problem sizes the repo trains at: the paper's single host
// (train_rr) and the four-node cluster with the placement head
// (sweep_cluster), whose input and output layers are wide.
var (
	paperDims = [2]int{12, 15}
	wideDims  = [2]int{104, 114}
)

// prefetcherAgent builds an agent of the given state/action dims on a
// sharded replay, in either precision, and returns one sample+learn
// cycle over caller-owned buffers — exactly what the pipeline's
// sampler and learner goroutines execute — already run once to warm
// the agent, network and optimizer scratch.
func prefetcherAgent(t testing.TB, dims [2]int, f32 bool) (cycle func() float64) {
	t.Helper()
	cfg := DefaultConfig(dims[0], dims[1])
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 8, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplay(sharded); err != nil {
		t.Fatal(err)
	}
	a.SetFloat32(f32)
	fillAgent(t, a, 4*cfg.BatchSize)

	rng := rand.New(rand.NewSource(11))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	cycle = func() float64 {
		s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
		return a.LearnBatch(s, idx, w)
	}
	cycle()
	return cycle
}

// testLearnBatchZeroAlloc is the acceptance gate on the prefetcher
// path in one precision: with warm scratch one sample+learn cycle must
// not allocate.
func testLearnBatchZeroAlloc(t *testing.T, f32 bool) {
	cycle := prefetcherAgent(t, paperDims, f32)
	allocs := testing.AllocsPerRun(20, func() {
		if cycle() < 0 {
			t.Fatal("negative loss")
		}
	})
	if allocs != 0 {
		t.Errorf("prefetcher path (f32=%v) allocates %v/op, want 0", f32, allocs)
	}
}

// TestLearnBatchZeroAlloc: the pipeline's sample+learn cycle allocates
// nothing once warm, at float64 (testLearnBatchZeroAlloc).
func TestLearnBatchZeroAlloc(t *testing.T) { testLearnBatchZeroAlloc(t, false) }

// TestLearnBatchF32ZeroAlloc: the same at float32.
func TestLearnBatchF32ZeroAlloc(t *testing.T) { testLearnBatchZeroAlloc(t, true) }

// TestSetReplayGuards: swapping is only allowed on an empty
// prioritized agent.
func TestSetReplayGuards(t *testing.T) {
	cfg := DefaultConfig(4, 3)
	cfg.Hidden = []int{8}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 2, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplay(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	fillAgent(t, a, 1)
	if err := a.SetReplay(sharded); err == nil {
		t.Error("swap over non-empty buffer accepted")
	}

	cfg.Prioritized = false
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SetReplay(sharded); err == nil {
		t.Error("swap on uniform agent accepted")
	}
}

// benchLearnBatch measures the fused prefetcher-path update
// (externally sampled minibatch + LearnBatch), the per-update cost the
// concurrent pipeline's learner pays — and the same update in single
// precision (SetFloat32). The f64/f32 pair at each size is the
// comparison ROADMAP's f32 decision needs (no trainer runs the f32
// path, so no end-to-end workload can make it).
func benchLearnBatch(b *testing.B, dims [2]int, f32 bool) {
	benchLearn(b, func() func() float64 { return prefetcherAgent(b, dims, f32) })
}

func BenchmarkAgentLearnBatch(b *testing.B)        { benchLearnBatch(b, paperDims, false) }
func BenchmarkAgentLearnBatchF32(b *testing.B)     { benchLearnBatch(b, paperDims, true) }
func BenchmarkAgentLearnBatchWide(b *testing.B)    { benchLearnBatch(b, wideDims, false) }
func BenchmarkAgentLearnBatchWideF32(b *testing.B) { benchLearnBatch(b, wideDims, true) }
