package ddpg

import (
	"math/rand"
	"testing"
)

// rebuildEvery is how many updates a learn benchmark runs on one agent
// before it builds a fresh one with the timer stopped. An agent that
// learns forever on its few hundred fixed transitions drives its Adam
// moments into subnormals after ~10 000 updates, and the divider pays
// for those in microcode assists — a cost no training run has (their
// moments hold no subnormal) and one that made the time per update grow
// with b.N.
const rebuildEvery = 2000

// benchLearn times step, an update on a warm agent that build makes,
// over b.N updates, a fresh agent every rebuildEvery of them.
func benchLearn(b *testing.B, build func() (step func() float64)) {
	step := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuildEvery == 0 {
			b.StopTimer()
			step = build()
			b.StartTimer()
		}
		step()
	}
}

// learnAgent builds an agent of the given state/action dims with a warm
// replay of four minibatches and returns its Learn, already run once
// to warm the scratch buffers.
func learnAgent(b *testing.B, dims [2]int) func() float64 {
	a, err := New(DefaultConfig(dims[0], dims[1]))
	if err != nil {
		b.Fatal(err)
	}
	fillAgent(b, a, 4*a.Config().BatchSize)
	a.Learn()
	return a.Learn
}

// BenchmarkAgentLearn measures one DDPG update — the Learn the
// round-robin trainer runs — at the GreenNFV problem size (12-dim
// state, 15-dim action, 48×48 hidden, batch 32); BenchmarkAgentLearnWide
// at sweep_cluster's 104/114. The steady state should not allocate.
func BenchmarkAgentLearn(b *testing.B) {
	benchLearn(b, func() func() float64 { return learnAgent(b, paperDims) })
}

func BenchmarkAgentLearnWide(b *testing.B) {
	benchLearn(b, func() func() float64 { return learnAgent(b, wideDims) })
}

// benchActBatch measures one batched acting pass over n actors' states
// at the GreenNFV problem size. No trainer acts through it (every Ape-X
// actor acts through ActInto); bench/'s ddpg.act_batch_f32_us probe is
// its caller.
func benchActBatch(b *testing.B, n int, f32 bool) {
	cfg := DefaultConfig(12, 15)
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if f32 {
		a.SetActFloat32(true)
	}
	noises := make([]*OUNoise, n)
	for i := range noises {
		noises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, 0.3*(1+0.5*float64(i)),
			rand.New(rand.NewSource(int64(i)+1)))
	}
	rng := rand.New(rand.NewSource(3))
	states := make([]float64, n*cfg.StateDim)
	for i := range states {
		states[i] = rng.NormFloat64()
	}
	dst := make([]float64, n*cfg.ActionDim)
	if err := a.ActBatch(states, n, noises, dst); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ActBatch(states, n, noises, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActBatch: the f64 row path (bit-identical to scalar acting)
// over the default 4-actor fleet.
func BenchmarkActBatch(b *testing.B) { benchActBatch(b, 4, false) }

// BenchmarkActBatchF32: the same pass through the vectorized f32
// engine (built, though no trainer enables it).
func BenchmarkActBatchF32(b *testing.B) { benchActBatch(b, 4, true) }
