package ddpg

import (
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// fixedMinibatches generates a deterministic schedule of minibatches
// at the agent's problem size, shared verbatim by both precisions so
// the parity test isolates arithmetic differences from sampling
// differences.
func fixedMinibatches(cfg Config, updates int) [][]replay.Transition {
	rng := rand.New(rand.NewSource(331))
	out := make([][]replay.Transition, updates)
	for u := range out {
		batch := make([]replay.Transition, cfg.BatchSize)
		for i := range batch {
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
			batch[i] = replay.Transition{
				State: s, Action: act, Reward: rng.NormFloat64(), NextState: ns,
			}
		}
		out[u] = batch
	}
	return out
}

// TestLearnF32ParityWithF64 quantifies the f32 path's drift against
// the f64 update: two identically seeded agents consume the
// same fixed minibatch schedule, one in each precision, and the
// critic's Q predictions and the actor's actions must stay within
// 1e-3 after the full schedule. This is the acceptance bound for
// running the concurrent pipeline's learner in single precision.
func TestLearnF32ParityWithF64(t *testing.T) {
	cfg := DefaultConfig(12, 15)
	cfg.BatchSize = 16
	const updates = 40

	a64, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a32, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a32.SetFloat32(true)
	if !a32.f32 {
		t.Fatal("SetFloat32(true) did not enable the f32 path")
	}

	for _, batch := range fixedMinibatches(cfg, updates) {
		l64 := a64.LearnBatch(batch, nil, nil)
		l32 := a32.LearnBatch(batch, nil, nil)
		if math.IsNaN(l64) || math.IsNaN(l32) {
			t.Fatalf("NaN loss: f64 %v f32 %v", l64, l32)
		}
		if math.Abs(l64-l32) > 1e-2*math.Max(1, l64) {
			t.Fatalf("losses diverged: f64 %v f32 %v", l64, l32)
		}
	}
	if a64.LearnSteps() != updates || a32.LearnSteps() != updates {
		t.Fatalf("learn steps: f64 %d f32 %d, want %d", a64.LearnSteps(), a32.LearnSteps(), updates)
	}

	// Flush the f32 mirrors and compare the deployed policies.
	a32.SetFloat32(false)
	if a32.f32 {
		t.Fatal("SetFloat32(false) left the f32 path enabled")
	}
	probe := rand.New(rand.NewSource(733))
	var maxDQ, maxDA float64
	sa := make([]float64, cfg.StateDim+cfg.ActionDim)
	for p := 0; p < 64; p++ {
		s := make([]float64, cfg.StateDim)
		for j := range s {
			s[j] = probe.NormFloat64()
		}
		act64 := greedy(t, a64, s)
		act32 := greedy(t, a32, s)
		for j := range act64 {
			if d := math.Abs(act64[j] - act32[j]); d > maxDA {
				maxDA = d
			}
		}
		copy(sa, s)
		copy(sa[cfg.StateDim:], act64)
		q64 := a64.Critic.Forward(sa)[0]
		q32 := a32.Critic.Forward(sa)[0]
		if d := math.Abs(q64 - q32); d > maxDQ {
			maxDQ = d
		}
	}
	t.Logf("after %d updates: max |ΔQ| = %.2e, max |Δaction| = %.2e", updates, maxDQ, maxDA)
	if maxDQ > 1e-3 {
		t.Errorf("max |ΔQ| = %v after %d updates, want < 1e-3", maxDQ, updates)
	}
	if maxDA > 1e-3 {
		t.Errorf("max |Δaction| = %v after %d updates, want < 1e-3", maxDA, updates)
	}
}

// TestSetFloat32RedundantEnableIsNoOp: a second SetFloat32(true)
// mid-training must not re-snapshot the mirrors from the stale f64
// weights (which would silently revert the critic and targets to
// their enable-time state). Two identically seeded agents on the same
// fixed schedule, one with an extra enable halfway through, must end
// bit-identical.
func TestSetFloat32RedundantEnableIsNoOp(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.Hidden = []int{16, 16}
	cfg.BatchSize = 8
	schedule := fixedMinibatches(cfg, 10)

	run := func(doubleEnable bool) []float64 {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.SetFloat32(true)
		for i, batch := range schedule {
			if doubleEnable && i == 5 {
				a.SetFloat32(true)
			}
			a.LearnBatch(batch, nil, nil)
		}
		a.SetFloat32(false)
		return greedy(t, a, make([]float64, cfg.StateDim))
	}
	want := run(false)
	got := run(true)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("redundant enable changed the policy at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

// TestLearnF32RoutesBothEntryPoints: with the f32 path enabled, both
// Learn (apex.Learner.LearnStep) and LearnBatch (the concurrent
// pipeline's prefetcher) train through it, update priorities, and count steps.
func TestLearnF32RoutesBothEntryPoints(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.Hidden = []int{16, 16}
	cfg.BatchSize = 8
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.SetFloat32(true)
	fillAgent(t, a, 64)

	if loss := a.Learn(); math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("f32 Learn loss %v", loss)
	}
	rng := rand.New(rand.NewSource(17))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
	if loss := a.LearnBatch(s, idx, w); math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("f32 LearnBatch loss %v", loss)
	}
	if got := a.LearnSteps(); got != 2 {
		t.Errorf("learn steps = %d, want 2", got)
	}
	// Broadcast serialization must carry the trained f32 weights.
	data, err := a.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadActorBytes(data); err != nil {
		t.Fatal(err)
	}
	st := make([]float64, cfg.StateDim)
	got, want := greedy(t, b, st), greedy(t, a, st)
	for j := range want {
		// a's f64 actor was flushed by ActorBytes, so the loaded copy
		// must reproduce it exactly.
		if got[j] != want[j] {
			t.Fatalf("broadcast policy mismatch at %d: %v vs %v", j, got[j], want[j])
		}
	}
}
