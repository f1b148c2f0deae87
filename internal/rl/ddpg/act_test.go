package ddpg

import (
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// actConfig is smallConfig with nontrivial dims for batching tests.
func actConfig() Config {
	cfg := DefaultConfig(5, 3)
	cfg.Hidden = []int{18, 14}
	cfg.BatchSize = 8
	cfg.BufferCap = 1024
	return cfg
}

// ActInto is the scalar reference spelled out: one Forward, the
// agent's own OU draw when exploring, the clamp. An identically seeded
// agent computing that by hand may never diverge from it, so the noise
// RNG is consumed the same way too.
func TestActIntoMatchesScalarReference(t *testing.T) {
	a, err := New(actConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(actConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	state := make([]float64, 5)
	dst := make([]float64, 3)
	for step := 0; step < 50; step++ {
		for i := range state {
			state[i] = rng.NormFloat64()
		}
		explore := step%3 != 0
		if err := a.ActInto(state, explore, dst); err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), ref.Actor.Forward(state)...)
		if explore {
			for i, v := range ref.noise.Sample() {
				want[i] += v
			}
		}
		for i := range want {
			want[i] = max(-1, min(1, want[i]))
			if dst[i] != want[i] {
				t.Fatalf("step %d: ActInto[%d] = %v, reference %v (not bit-identical)", step, i, dst[i], want[i])
			}
		}
	}
	if err := a.ActInto(state, false, dst[:2]); err == nil {
		t.Error("short dst accepted")
	}
}

// A replica PolicyFromFrame builds from the agent's actor frame — and
// one built from that replica's own frame — must act bit-identically to
// the agent's own greedy ActInto, stay independent of the agent's later
// updates, reject wrong dimensions, and allocate nothing per action.
func TestPolicyReplicaMatchesAgent(t *testing.T) {
	a, err := New(actConfig())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := a.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	replica, err := PolicyFromFrame(actConfig(), frame)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := PolicyFromFrame(actConfig(), replica.Actor.ParamFrame())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	state := make([]float64, 5)
	want, got, got2 := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	for step := 0; step < 20; step++ {
		for i := range state {
			state[i] = 3 * rng.NormFloat64()
		}
		if err := a.ActInto(state, false, want); err != nil {
			t.Fatal(err)
		}
		if err := replica.Greedy(state, got); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Greedy(state, got2); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] || got2[i] != want[i] {
				t.Fatalf("step %d action[%d]: agent %v, replica %v, rebuilt %v", step, i, want[i], got[i], got2[i])
			}
		}
	}
	// The replica owns its weights: moving the agent's does not move it.
	for _, p := range a.Actor.ParamSlices() {
		for i := range p {
			p[i] += 0.5
		}
	}
	if err := replica.Greedy(state, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica moved with the agent: action[%d] %v -> %v", i, want[i], got[i])
		}
	}
	if err := replica.Greedy(state[:4], got); err == nil {
		t.Error("short state accepted")
	}
	if err := replica.Greedy(state, got[:2]); err == nil {
		t.Error("short action buffer accepted")
	}
	if allocs := testing.AllocsPerRun(100, func() { replica.Greedy(state, got) }); allocs != 0 {
		t.Errorf("Policy.Greedy allocates %v per action", allocs)
	}
}

// A View is the acting half of New(cfg) with the same seed, bit for
// bit: over 20 push windows of exploring actions, each window's
// TDErrorBatch equals the agent's, and so does everything after a
// parameter load between two windows. It refuses what New refuses.
func TestViewMatchesAgent(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed += 99
	donor, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := donor.ActorBytes()
	rng := rand.New(rand.NewSource(23))
	const window = 8
	ts := randomTransitions(cfg, window, 600)
	want, got := make([]float64, cfg.ActionDim), make([]float64, cfg.ActionDim)
	var tdWant, tdGot []float64
	for w := 0; w < 20; w++ {
		if w == 10 {
			if err := a.LoadActorBytes(frame); err != nil {
				t.Fatal(err)
			}
			if err := v.LoadActorBytes(frame); err != nil {
				t.Fatal(err)
			}
		}
		for i := range ts {
			for j := range ts[i].State {
				ts[i].State[j] = 2 * rng.NormFloat64()
			}
			if err := a.ActInto(ts[i].State, true, want); err != nil {
				t.Fatal(err)
			}
			if err := v.ActInto(ts[i].State, true, got); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("window %d step %d: view action[%d] = %v, agent %v", w, i, j, got[j], want[j])
				}
			}
			copy(ts[i].Action, got)
		}
		tdWant, tdGot = a.TDErrorBatch(ts, tdWant), v.TDErrorBatch(ts, tdGot)
		for i := range tdWant {
			if math.Float64bits(tdGot[i]) != math.Float64bits(tdWant[i]) {
				t.Fatalf("window %d: view TD error %d = %v, agent %v", w, i, tdGot[i], tdWant[i])
			}
		}
	}
	bad := cfg
	bad.BufferCap = bad.BatchSize - 1
	if _, err := NewView(bad); err == nil {
		t.Error("NewView accepted a config New refuses")
	}
}

func TestActBatchMatchesScalarReference(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg) // identical weights: same seed
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4, 7} {
		noises := make([]*OUNoise, n)
		refNoises := make([]*OUNoise, n)
		for i := range noises {
			sigma := 0.2 * (1 + 0.5*float64(i))
			noises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, sigma, rand.New(rand.NewSource(300+int64(i))))
			refNoises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, sigma, rand.New(rand.NewSource(300+int64(i))))
		}
		rng := rand.New(rand.NewSource(900 + int64(n)))
		states := make([]float64, n*cfg.StateDim)
		dst := make([]float64, n*cfg.ActionDim)
		for round := 0; round < 10; round++ {
			for i := range states {
				states[i] = rng.NormFloat64()
			}
			if err := a.ActBatch(states, n, noises, dst); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				out := ref.Actor.Forward(states[r*cfg.StateDim : (r+1)*cfg.StateDim])
				noise := refNoises[r].Sample()
				for i := 0; i < cfg.ActionDim; i++ {
					want := out[i] + noise[i]
					if want < -1 {
						want = -1
					}
					if want > 1 {
						want = 1
					}
					if got := dst[r*cfg.ActionDim+i]; got != want {
						t.Fatalf("n=%d round %d row %d: ActBatch[%d] = %v, scalar reference %v (not bit-identical)",
							n, round, r, i, got, want)
					}
				}
			}
		}
	}
}

// The f32 acting path is not bit-comparable, but its actions must stay
// within 1e-3 of the f64 path (greedy, so no RNG divergence).
func TestActBatchFloat32Parity(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.SetActFloat32(true)
	if !b.actF32 {
		t.Fatal("SetActFloat32 did not enable the f32 acting path")
	}
	const n = 6
	rng := rand.New(rand.NewSource(17))
	states := make([]float64, n*cfg.StateDim)
	f64Out := make([]float64, n*cfg.ActionDim)
	f32Out := make([]float64, n*cfg.ActionDim)
	for round := 0; round < 20; round++ {
		for i := range states {
			states[i] = rng.NormFloat64()
		}
		if err := a.ActBatch(states, n, nil, f64Out); err != nil {
			t.Fatal(err)
		}
		if err := b.ActBatch(states, n, nil, f32Out); err != nil {
			t.Fatal(err)
		}
		for i := range f64Out {
			if d := math.Abs(f64Out[i] - f32Out[i]); d > 1e-3 {
				t.Fatalf("round %d: |f32 - f64| = %v at %d, want ≤ 1e-3", round, d, i)
			}
		}
	}
}

// randomTransitions builds transitions with the agent's dims.
func randomTransitions(cfg Config, n int, seed int64) []replay.Transition {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]replay.Transition, n)
	for i := range ts {
		s := make([]float64, cfg.StateDim)
		ns := make([]float64, cfg.StateDim)
		act := make([]float64, cfg.ActionDim)
		for j := range s {
			s[j], ns[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		for j := range act {
			act[j] = rng.Float64()*2 - 1
		}
		ts[i] = replay.Transition{
			State: s, Action: act, NextState: ns,
			Reward: rng.NormFloat64(), Done: i%5 == 4,
		}
	}
	return ts
}

// TDErrorBatch on the f64 path must be bit-identical to the scalar
// TDError per transition — the actors' priority settlement and the
// remote -verifyprio check both demand it.
func TestTDErrorBatchMatchesScalar(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, n := range []int{1, 4, 9} {
		ts := randomTransitions(cfg, n, 400+int64(n))
		out = a.TDErrorBatch(ts, out)
		if len(out) != n {
			t.Fatalf("n=%d: got %d errors", n, len(out))
		}
		for i, tr := range ts {
			if want := a.TDError(tr); out[i] != want {
				t.Fatalf("n=%d: TDErrorBatch[%d] = %v, TDError = %v (not bit-identical)", n, i, out[i], want)
			}
		}
	}
}

// The f32 TD errors only feed replay priorities; they must track the
// f64 values closely but need no bit-identity.
func TestTDErrorBatchFloat32Parity(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := randomTransitions(cfg, 8, 500)
	a.SetActFloat32(true)
	got := a.TDErrorBatch(ts, nil)
	for i, tr := range ts {
		if d := math.Abs(got[i] - a.TDError(tr)); d > 1e-2 {
			t.Fatalf("f32 TD error %d drifts %v from scalar f64, want ≤ 1e-2", i, d)
		}
	}
}

// The batched acting entry points are per-step hot paths: zero
// allocations once the scratch has grown.
func TestActBatchNoAllocs(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	noises := make([]*OUNoise, n)
	for i := range noises {
		noises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, 0.3, rand.New(rand.NewSource(int64(i))))
	}
	states := make([]float64, n*cfg.StateDim)
	dst := make([]float64, n*cfg.ActionDim)
	ts := randomTransitions(cfg, n, 42)
	var td []float64
	a.ActBatch(states, n, noises, dst)
	td = a.TDErrorBatch(ts, td)
	if avg := testing.AllocsPerRun(50, func() { a.ActBatch(states, n, noises, dst) }); avg != 0 {
		t.Errorf("ActBatch allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { td = a.TDErrorBatch(ts, td) }); avg != 0 {
		t.Errorf("TDErrorBatch allocates %.1f per call, want 0", avg)
	}
}

// SetActFloat32 must refuse to take over the mirrors while the learner
// precision switch owns them.
func TestSetActFloat32NoOpUnderLearnerF32(t *testing.T) {
	a, err := New(actConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.SetFloat32(true)
	a.SetActFloat32(true)
	if a.actF32 {
		t.Error("SetActFloat32 engaged while the learner owns the f32 mirrors")
	}
	a.SetFloat32(false)
}
