package qlearn

import (
	"testing"

	"greennfv/internal/perfmodel"
)

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Levels = 1 },
		func(c *Config) { c.ThroughputBins = 0 },
		func(c *Config) { c.MaxEnergyJ = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Gamma = 1.1 },
		func(c *Config) { c.Epsilon = 2 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestActionSpaceSize(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.actions != 243 { // 3^5
		t.Errorf("actions = %d, want 243", a.actions)
	}
	if len(a.q) != 64 {
		t.Errorf("states = %d, want 64", len(a.q))
	}
}

func TestStateIndexBinning(t *testing.T) {
	a, _ := New(DefaultConfig())
	if got := a.StateIndex(0, 0); got != 0 {
		t.Errorf("origin bin = %d", got)
	}
	if got := a.StateIndex(99, 99999); got != 63 {
		t.Errorf("saturated bin = %d, want 63", got)
	}
	if got := a.StateIndex(-5, -5); got != 0 {
		t.Errorf("negative bin = %d", got)
	}
	// Distinct measurements land in distinct bins.
	if a.StateIndex(1, 100) == a.StateIndex(9, 3000) {
		t.Error("far-apart measurements share a bin")
	}
}

func TestKnobsDecodeAllValid(t *testing.T) {
	a, _ := New(DefaultConfig())
	b := perfmodel.DefaultBounds()
	seen := map[perfmodel.NFKnobs]bool{}
	for act := 0; act < a.actions; act++ {
		k, err := a.Knobs(act)
		if err != nil {
			t.Fatalf("action %d: %v", act, err)
		}
		if k.CPUShare < b.ShareMin || k.CPUShare > b.ShareMax {
			t.Fatalf("action %d: share %v", act, k.CPUShare)
		}
		if k.Batch < b.BatchMin || k.Batch > b.BatchMax {
			t.Fatalf("action %d: batch %v", act, k.Batch)
		}
		if k.DMABytes < b.DMAMin || k.DMABytes > b.DMAMax {
			t.Fatalf("action %d: dma %v", act, k.DMABytes)
		}
		seen[k] = true
	}
	if len(seen) != a.actions {
		t.Errorf("only %d distinct knob sets from %d actions", len(seen), a.actions)
	}
	if _, err := a.Knobs(-1); err == nil {
		t.Error("negative action accepted")
	}
	if _, err := a.Knobs(243); err == nil {
		t.Error("overflow action accepted")
	}
}

func TestEpsilonDecay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpsilonDecay = 0.5
	cfg.EpsilonMin = 0.1
	a, _ := New(cfg)
	for i := 0; i < 10; i++ {
		if err := a.Update(0, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.eps != 0.1 {
		t.Errorf("epsilon = %v, want floor 0.1", a.eps)
	}
}

func TestUpdateRangeChecks(t *testing.T) {
	a, _ := New(DefaultConfig())
	if err := a.Update(-1, 0, 0, 0); err == nil {
		t.Error("bad state accepted")
	}
	if err := a.Update(0, 9999, 0, 0); err == nil {
		t.Error("bad action accepted")
	}
}

// The learner must solve a tiny deterministic MDP: action 7 always
// pays 1 from any state, everything else pays 0.
func TestLearnsBestAction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThroughputBins, cfg.EnergyBins = 2, 1 // 2 states so 243 actions get sampled
	cfg.Epsilon = 1.0
	cfg.EpsilonDecay = 0.9995
	cfg.EpsilonMin = 0.05
	cfg.Gamma = 0
	a, _ := New(cfg)
	const lucky = 7
	for step := 0; step < 30000; step++ {
		s := step % len(a.q)
		act := a.Act(s)
		r := 0.0
		if act == lucky {
			r = 1
		}
		if err := a.Update(s, act, r, (s+1)%len(a.q)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < len(a.q); s++ {
		if got := a.Greedy(s); got != lucky {
			t.Fatalf("state %d greedy = %d, want %d (q=%v)", s, got, lucky, a.q[s][got])
		}
	}
}
