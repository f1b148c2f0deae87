package ddpg

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"greennfv/internal/rl/replay"
)

func smallConfig() Config {
	cfg := DefaultConfig(3, 2)
	cfg.Hidden = []int{16, 16}
	cfg.BatchSize = 16
	cfg.BufferCap = 4096
	return cfg
}

// act is the agent's clamped action for state (OU noise added when
// explore is set), through ActInto into a fresh buffer.
func act(t testing.TB, a *Agent, state []float64, explore bool) []float64 {
	t.Helper()
	dst := make([]float64, a.cfg.ActionDim)
	if err := a.ActInto(state, explore, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// greedy is act without exploration.
func greedy(t testing.TB, a *Agent, state []float64) []float64 {
	t.Helper()
	return act(t, a, state, false)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.StateDim = 0 },
		func(c *Config) { c.ActionDim = 0 },
		func(c *Config) { c.Hidden = nil },
		func(c *Config) { c.ActorLR = 0 },
		func(c *Config) { c.Gamma = -0.5 },
		func(c *Config) { c.Gamma = 1.5 },
		func(c *Config) { c.Tau = 0 },
		func(c *Config) { c.BufferCap = 1 },
		func(c *Config) { c.BufferCap = math.MaxInt }, // the sum tree's power of two would overflow
	}
	for i, mut := range bad {
		cfg := smallConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestActBoundsAndDim(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range act(t, a, []float64{0.5, -0.5, 0.1}, true) {
		if v < -1 || v > 1 || math.IsNaN(v) {
			t.Errorf("action %v outside [-1,1]", v)
		}
	}
	if err := a.ActInto([]float64{1}, false, make([]float64, 2)); err == nil {
		t.Error("wrong state dim accepted")
	}
	// The greedy action is deterministic.
	g1 := greedy(t, a, []float64{0.5, -0.5, 0.1})
	g2 := greedy(t, a, []float64{0.5, -0.5, 0.1})
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Error("greedy policy not deterministic")
		}
	}
}

func TestExplorationNoiseVaries(t *testing.T) {
	a, _ := New(smallConfig())
	s := []float64{0.1, 0.2, 0.3}
	a1, a2 := act(t, a, s, true), act(t, a, s, true)
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
		}
	}
	if same {
		t.Error("exploration produced identical actions")
	}
}

func TestLearnRequiresBatch(t *testing.T) {
	a, _ := New(smallConfig())
	if loss := a.Learn(); loss != 0 {
		t.Errorf("learn on empty buffer returned %v", loss)
	}
}

// The canonical smoke test: DDPG must solve a trivial continuous
// bandit (reward = -(a0-0.5)^2, independent of state). After
// training, the greedy action should approach 0.5.
func TestLearnsContinuousBandit(t *testing.T) {
	cfg := smallConfig()
	cfg.StateDim = 2
	cfg.ActionDim = 1
	cfg.OUSigma = 0.4
	cfg.NoiseDecay = 0.999
	cfg.Gamma = 0.0 // bandit: no bootstrapping
	cfg.Seed = 3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	state := []float64{0.3, -0.3}
	for step := 0; step < 3000; step++ {
		action := act(t, a, state, true)
		r := -(action[0] - 0.5) * (action[0] - 0.5)
		a.Observe(replay.Transition{
			State:     append([]float64(nil), state...),
			Action:    action,
			Reward:    r,
			NextState: append([]float64(nil), state...),
			Done:      true,
		})
		a.Learn()
		_ = rng
	}
	got := greedy(t, a, state)[0]
	if math.Abs(got-0.5) > 0.15 {
		t.Errorf("greedy action = %v, want ~0.5", got)
	}
}

// TestReleaseTrainingMemory: releasing a trained agent's training
// memory allocates nothing and changes no bit of what it serves —
// greedy actions, TD errors, the actor frame and the serving
// checkpoint. The replay is empty after it, Learn is a no-op until
// BatchSize transitions arrive, and then the agent learns again. Both
// replay kinds.
func TestReleaseTrainingMemory(t *testing.T) {
	for _, prioritized := range []bool{true, false} {
		cfg := smallConfig()
		cfg.Prioritized = prioritized
		ts := randomTransitions(cfg, 200, 5)
		trained := func() *Agent {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range ts[:100] {
				a.Observe(tr)
			}
			for i := 0; i < 50; i++ {
				a.Learn()
			}
			a.TDErrorBatch(ts[:8], nil)
			return a
		}
		serves := func(a *Agent) (bits []uint64, frame, state []byte) {
			for _, tr := range ts[100:120] {
				for _, v := range greedy(t, a, tr.State) {
					bits = append(bits, math.Float64bits(v))
				}
				bits = append(bits, math.Float64bits(a.TDError(tr)))
			}
			frame, _ = a.ActorBytes()
			state, err := a.StateBytes(false)
			if err != nil {
				t.Fatal(err)
			}
			return bits, frame, state
		}
		// AllocsPerRun's warm-up call releases the first agent, its one
		// measured call the second: each a first release.
		agents := []*Agent{trained(), trained()}
		wantBits, wantFrame, wantState := serves(agents[1])
		next := 0
		if allocs := testing.AllocsPerRun(1, func() {
			agents[next].ReleaseTrainingMemory()
			next++
		}); allocs != 0 {
			t.Errorf("prioritized %v: releasing allocates %v", prioritized, allocs)
		}
		a := agents[1]
		bits, frame, state := serves(a)
		for i := range wantBits {
			if bits[i] != wantBits[i] {
				t.Fatalf("prioritized %v: served value %d moved with the release", prioritized, i)
			}
		}
		if !bytes.Equal(frame, wantFrame) || !bytes.Equal(state, wantState) {
			t.Errorf("prioritized %v: the actor frame or the serving checkpoint moved with the release", prioritized)
		}
		steps := a.LearnSteps()
		if a.BufferLen() != 0 || a.Learn() != 0 || a.LearnSteps() != steps {
			t.Errorf("prioritized %v: a released agent holds %d transitions or learned", prioritized, a.BufferLen())
		}
		for _, tr := range ts[120 : 120+cfg.BatchSize-1] {
			a.Observe(tr)
		}
		if a.Learn() != 0 {
			t.Errorf("prioritized %v: learned below BatchSize transitions", prioritized)
		}
		a.Observe(ts[199])
		if loss := a.Learn(); loss == 0 || math.IsNaN(loss) || a.LearnSteps() != steps+1 {
			t.Errorf("prioritized %v: refilled agent's update: loss %v, %d steps after %d", prioritized, loss, a.LearnSteps(), steps)
		}
	}
}

func TestTDErrorFinite(t *testing.T) {
	a, _ := New(smallConfig())
	tr := replay.Transition{
		State:     []float64{0.1, 0.2, 0.3},
		Action:    []float64{0.5, -0.5},
		Reward:    1.0,
		NextState: []float64{0.2, 0.3, 0.4},
	}
	td := a.TDError(tr)
	if math.IsNaN(td) || math.IsInf(td, 0) {
		t.Errorf("TD error = %v", td)
	}
	// Done transitions drop the bootstrap term.
	tr.Done = true
	td2 := a.TDError(tr)
	if math.IsNaN(td2) {
		t.Error("done TD error NaN")
	}
}

func TestNoiseDecays(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseDecay = 0.9
	a, _ := New(cfg)
	for i := 0; i < 20; i++ {
		a.Observe(replay.Transition{
			State:     []float64{0, 0, 0},
			Action:    []float64{0, 0},
			Reward:    0,
			NextState: []float64{0, 0, 0},
		})
	}
	before := a.noise.Sigma()
	a.Learn()
	if a.noise.Sigma() >= before {
		t.Errorf("sigma did not decay: %v -> %v", before, a.noise.Sigma())
	}
	if a.LearnSteps() != 1 {
		t.Errorf("learn steps = %d", a.LearnSteps())
	}
}

func TestSyncFrom(t *testing.T) {
	a, _ := New(smallConfig())
	b, _ := New(smallConfig())
	// Make them differ.
	for i := 0; i < 64; i++ {
		a.Observe(replay.Transition{
			State:     []float64{rand.Float64(), 0, 0},
			Action:    []float64{0.1, 0.1},
			Reward:    1,
			NextState: []float64{0, 0, 0},
		})
	}
	a.Learn()
	s := []float64{0.4, 0.4, 0.4}
	state, err := a.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadStateBytes(state); err != nil {
		t.Fatal(err)
	}
	ga, gb := greedy(t, a, s), greedy(t, b, s)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("sync did not equalize policies")
		}
	}
}

func TestActorBytesRoundTrip(t *testing.T) {
	a, _ := New(smallConfig())
	b, _ := New(smallConfig())
	data, err := a.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadActorBytes(data); err != nil {
		t.Fatal(err)
	}
	s := []float64{0.2, 0.2, 0.2}
	ga, gb := greedy(t, a, s), greedy(t, b, s)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("actor broadcast did not reproduce the policy")
		}
	}
	if err := b.LoadActorBytes([]byte("garbage")); err == nil {
		t.Error("garbage actor bytes accepted")
	}
}

func TestUniformReplayVariantLearns(t *testing.T) {
	cfg := smallConfig()
	cfg.Prioritized = false
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a.Observe(replay.Transition{
			State:     []float64{0.1, 0.1, 0.1},
			Action:    []float64{0, 0},
			Reward:    1,
			NextState: []float64{0.1, 0.1, 0.1},
		})
	}
	if loss := a.Learn(); loss <= 0 {
		t.Errorf("uniform-replay learn loss = %v", loss)
	}
}

func TestOUNoiseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewOUNoise(1, 0.15, 0.2, rng)
	var sum, sumSq float64
	const steps = 20000
	for i := 0; i < steps; i++ {
		v := n.Sample()[0]
		sum += v
		sumSq += v * v
	}
	mean := sum / steps
	if math.Abs(mean) > 0.05 {
		t.Errorf("OU mean = %v, want ~0 (mean-reverting)", mean)
	}
	// Stationary std of OU with these params: sigma/sqrt(2*theta - theta^2) ~ sigma/sqrt(2 theta).
	std := math.Sqrt(sumSq/steps - mean*mean)
	want := 0.2 / math.Sqrt(2*0.15)
	if std < want*0.7 || std > want*1.3 {
		t.Errorf("OU std = %v, want ~%v", std, want)
	}
	n.Reset()
	if n.Sample()[0] == 0 {
		// First post-reset sample includes fresh noise; just ensure
		// the process still runs.
		t.Log("post-reset sample happened to be zero")
	}
}

// TestLoadActorBytesInPlace: a parameter pull copies the frame into the
// live actor without allocating anything, and a frame of the wrong
// shape changes nothing, even when only the last layer differs.
func TestLoadActorBytesInPlace(t *testing.T) {
	a, _ := New(smallConfig())
	b, _ := New(smallConfig())
	data, err := a.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	if pull := testing.AllocsPerRun(20, func() {
		if err := b.LoadActorBytes(data); err != nil {
			t.Fatal(err)
		}
	}); pull != 0 {
		t.Errorf("LoadActorBytes makes %v allocations per pull, want 0", pull)
	}

	wide := smallConfig()
	wide.ActionDim++
	other, _ := New(wide)
	bad, err := other.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := b.ActorBytes()
	if err := b.LoadActorBytes(bad); err == nil {
		t.Fatal("actor bytes of another shape accepted")
	}
	got, _ := b.ActorBytes()
	if !bytes.Equal(got, want) {
		t.Fatal("a rejected pull was partially applied")
	}
}

// TestAgentFootprint: BufferCap bounds the replay, it does not reserve
// it — building an agent used to zero a 65 536-slot ring and a 1 MB sum
// tree a starved learner never touches (6.8 MB), and later the first
// stored transition still took the whole tree. Storage now follows
// what is stored (internal/rl/replay's package doc). And what only
// acts holds no training state: an agent's targets have no gradient
// buffers, and a view, what every Ape-X actor holds, has none at all,
// no optimizer and no replay.
func TestAgentFootprint(t *testing.T) {
	cfg := DefaultConfig(15, 15) // the paper workload's environment
	state, action := make([]float64, cfg.StateDim), make([]float64, cfg.ActionDim)
	measure := func(build func() (*View, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := v.ActInto(state, true, action); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	agent := measure(func() (*View, error) {
		a, err := New(cfg)
		if err != nil {
			return nil, err
		}
		a.Learn() // a no-op on an empty replay, as in a starved round-robin step
		return a.View, nil
	})
	view := measure(func() (*View, error) { return NewView(cfg) })
	t.Logf("building and acting: agent %d KB, view %d KB", agent>>10, view>>10)
	// A 15-48-48-15-ish network is ~35 KB of weights and caches and as
	// much again of gradients, which only the agent's policy and critic
	// carry (204 and 140 KB measured, with one set of activation caches
	// per layer; 212 and 149 KB with two). The bounds leave ~8 %.
	if agent > 220<<10 {
		t.Errorf("a default agent allocates %d KB, want under 220 KB", agent>>10)
	}
	if view > 152<<10 {
		t.Errorf("a default view allocates %d KB, want under 152 KB", view>>10)
	}
	// 300 stored transitions, all sharing one set of slices so that
	// only the replay's own storage counts, grow its ring and tree to
	// 512 slots.
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := replay.Transition{State: state, Action: action, NextState: state}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 300; i++ {
		a.Observe(tr)
	}
	runtime.ReadMemStats(&after)
	stored := after.TotalAlloc - before.TotalAlloc
	t.Logf("storing 300 transitions: %d KB", stored>>10)
	if stored > 256<<10 {
		t.Errorf("storing 300 transitions allocates %d KB, want under 256 KB", stored>>10)
	}
}
