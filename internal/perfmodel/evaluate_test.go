package perfmodel

import (
	"math/rand"
	"testing"
)

// gridPoint is one evaluation of a knob grid: a chain, its per-NF
// knob settings, the offered traffic and the platform variant.
type gridPoint struct {
	chain   ChainSpec
	knobs   []NFKnobs
	traffic Traffic
	opt     EvalOptions
}

// grid builds a deterministic pseudo-random knob grid across the
// three calibrated chains, mixed traffic and platform variants — the
// shape the figure drivers sweep.
func grid(n int) []gridPoint {
	rng := rand.New(rand.NewSource(42))
	chains := []ChainSpec{StandardChain(), HeavyChain(), LightChain()}
	b := DefaultBounds()
	points := make([]gridPoint, 0, n)
	for i := 0; i < n; i++ {
		chain := chains[i%len(chains)]
		knobs := make([]NFKnobs, len(chain.NFs))
		for j := range knobs {
			knobs[j] = NFKnobs{
				CPUShare:    b.ShareMin + rng.Float64()*(b.ShareMax-b.ShareMin),
				FreqGHz:     b.FreqMin + rng.Float64()*(b.FreqMax-b.FreqMin),
				LLCFraction: b.LLCMin + rng.Float64()*(b.LLCMax-b.LLCMin),
				DMABytes:    b.DMAMin + rng.Int63n(b.DMAMax-b.DMAMin),
				Batch:       b.BatchMin + rng.Intn(b.BatchMax-b.BatchMin),
			}
		}
		points = append(points, gridPoint{
			chain: chain,
			knobs: knobs,
			traffic: Traffic{
				OfferedPPS: 1e5 + rng.Float64()*14e6,
				FrameBytes: 64 + rng.Intn(1455),
				Burstiness: rng.Float64() * 8,
			},
			opt: EvalOptions{
				BusyPoll: i%2 == 0,
				NoSleep:  i%3 == 0,
			},
		})
	}
	return points
}

func resultsEqual(a, b Result) bool {
	if a.ThroughputPPS != b.ThroughputPPS || a.ThroughputGbps != b.ThroughputGbps ||
		a.DropProb != b.DropProb || a.MissRate != b.MissRate ||
		a.MissesPerSecond != b.MissesPerSecond || a.CPUPercent != b.CPUPercent ||
		a.Utilization != b.Utilization || a.PowerWatts != b.PowerWatts ||
		a.EnergyJoules != b.EnergyJoules || a.EnergyPerMPkt != b.EnergyPerMPkt ||
		a.Efficiency != b.Efficiency || len(a.PerNF) != len(b.PerNF) {
		return false
	}
	for i := range a.PerNF {
		if a.PerNF[i] != b.PerNF[i] {
			return false
		}
	}
	return true
}

// EvaluateInto must be bit-identical to Evaluate — it IS the scalar
// path, with the allocation moved to the caller.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	cfg := Default()
	var scratch Result
	for i, p := range grid(64) {
		want, err := cfg.Evaluate(p.chain, p.knobs, p.traffic, p.opt)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if err := cfg.EvaluateInto(&scratch, p.chain, p.knobs, p.traffic, p.opt); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if !resultsEqual(want, scratch) {
			t.Fatalf("point %d: EvaluateInto diverges from Evaluate:\n%+v\nvs\n%+v", i, scratch, want)
		}
	}
}

// The steady-state evaluation core must not allocate: this is the
// contract the RL environment's step path and the cluster model rely
// on.
func TestEvaluateIntoZeroAlloc(t *testing.T) {
	cfg := Default()
	chain := StandardChain()
	knobs := DefaultKnobs(len(chain.NFs))
	tr := Traffic{OfferedPPS: 2e6, FrameBytes: 512, Burstiness: 1}
	var res Result
	// Warm the PerNF scratch, then demand zero allocations.
	if err := cfg.EvaluateInto(&res, chain, knobs, tr, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := cfg.EvaluateInto(&res, chain, knobs, tr, EvalOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvaluateInto allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkEvaluateInto(b *testing.B) {
	cfg := Default()
	chain := StandardChain()
	knobs := DefaultKnobs(len(chain.NFs))
	tr := Traffic{OfferedPPS: 2e6, FrameBytes: 512, Burstiness: 1}
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cfg.EvaluateInto(&res, chain, knobs, tr, EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	cfg := Default()
	chain := StandardChain()
	knobs := DefaultKnobs(len(chain.NFs))
	tr := Traffic{OfferedPPS: 2e6, FrameBytes: 512, Burstiness: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Evaluate(chain, knobs, tr, EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
