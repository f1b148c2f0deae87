package perfmodel

import (
	"math/rand"
	"testing"
)

// gridJobs builds a deterministic pseudo-random knob grid across the
// three calibrated chains, mixed traffic and platform variants — the
// shape the figure drivers sweep.
func gridJobs(n int) []BatchJob {
	rng := rand.New(rand.NewSource(42))
	chains := []ChainSpec{StandardChain(), HeavyChain(), LightChain()}
	b := DefaultBounds()
	jobs := make([]BatchJob, 0, n)
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
		jobs = append(jobs, BatchJob{
			Chain: chain,
			Knobs: knobs,
			Traffic: Traffic{
				OfferedPPS: 1e5 + rng.Float64()*14e6,
				FrameBytes: 64 + rng.Intn(1455),
				Burstiness: rng.Float64() * 8,
			},
			Options: EvalOptions{
				BusyPoll: i%2 == 0,
				NoSleep:  i%3 == 0,
			},
		})
	}
	return jobs
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
	for i, j := range gridJobs(64) {
		want, err := cfg.Evaluate(j.Chain, j.Knobs, j.Traffic, j.Options)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if err := cfg.EvaluateInto(&scratch, j.Chain, j.Knobs, j.Traffic, j.Options); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !resultsEqual(want, scratch) {
			t.Fatalf("job %d: EvaluateInto diverges from Evaluate:\n%+v\nvs\n%+v", i, scratch, want)
		}
	}
}

// BatchEvaluate must produce bit-identical results at any worker
// count (the pool is a throughput knob, not a semantics knob). CI
// runs this under -race, which also exercises the pool for data
// races.
func TestBatchEvaluateMatchesSerial(t *testing.T) {
	cfg := Default()
	jobs := gridJobs(97) // odd count: uneven split across workers
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		r, err := cfg.Evaluate(j.Chain, j.Knobs, j.Traffic, j.Options)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4, 16} {
		got := make([]Result, len(jobs))
		if err := cfg.BatchEvaluate(jobs, got, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if !resultsEqual(want[i], got[i]) {
				t.Fatalf("workers=%d job %d: batch diverges from scalar", workers, i)
			}
		}
	}
}

// The reported error must be the lowest-indexed failure regardless of
// scheduling. Jobs below the failing index always evaluate (they are
// claimed first); later jobs may be skipped once the failure stops
// the batch.
func TestBatchEvaluateDeterministicError(t *testing.T) {
	cfg := Default()
	jobs := gridJobs(32)
	jobs[7].Knobs = nil  // knob/NF mismatch
	jobs[21].Knobs = nil // a later failure that must not win
	for _, workers := range []int{1, 4} {
		results := make([]Result, len(jobs))
		err := cfg.BatchEvaluate(jobs, results, workers)
		if err == nil {
			t.Fatalf("workers=%d: bad jobs accepted", workers)
		}
		want := "perfmodel: job 7: "
		if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
			t.Errorf("workers=%d: error %q does not report lowest failing job", workers, got)
		}
		if results[6].ThroughputPPS <= 0 {
			t.Errorf("workers=%d: job below the failing index skipped", workers)
		}
	}
	results := make([]Result, len(jobs))
	if err := cfg.BatchEvaluate(jobs, results[:3], 2); err == nil {
		t.Error("results length mismatch accepted")
	}
}

// The steady-state evaluation core must not allocate: this is the
// contract the RL environment's step path and the grid sweeps rely
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

func BenchmarkBatchEvaluate64(b *testing.B) {
	cfg := Default()
	jobs := gridJobs(64)
	results := make([]Result, len(jobs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cfg.BatchEvaluate(jobs, results, 0); err != nil {
			b.Fatal(err)
		}
	}
}
