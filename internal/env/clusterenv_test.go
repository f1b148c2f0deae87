package env

import (
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/cluster"
	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/sla"
)

func testSLA() sla.SLA {
	return sla.SLA{Kind: sla.MaxThroughput, EnergyBudgetJ: 3300,
		RefThroughputGbps: 7.5, RefEnergyJ: 3300, PenaltyWeight: 2}
}

func clusterCfg(nodes, chains int, pol placement.Policy) ClusterConfig {
	cs, hops := StandardClusterChains(chains)
	return ClusterConfig{
		Topology:        cluster.Homogeneous(nodes),
		Chains:          cs,
		Hops:            hops,
		LatencyBudgetNs: 1e6,
		Bounds:          perfmodel.DefaultBounds(),
		SLA:             testSLA(),
		LoadJitter:      0.1,
		Seed:            17,
		Placement:       pol,
	}
}

// TestClusterEnvDeterminism is the satellite gate: same seed + same
// placement policy ⇒ bit-identical episode traces at 1, 2, and 8
// nodes (a named gate in scripts/gates.sh).
func TestClusterEnvDeterminism(t *testing.T) {
	for _, nodes := range []int{1, 2, 8} {
		for _, pol := range []placement.Policy{nil, placement.FFDSwap{}, placement.Relaxation{}} {
			name := "drl-head"
			if pol != nil {
				name = pol.Name()
			}
			a, err := NewCluster(clusterCfg(nodes, 4, pol))
			if err != nil {
				t.Fatalf("nodes=%d %s: %v", nodes, name, err)
			}
			b, err := NewCluster(clusterCfg(nodes, 4, pol))
			if err != nil {
				t.Fatalf("nodes=%d %s: %v", nodes, name, err)
			}
			obsA := a.Reset(42)
			obsB := b.Reset(42)
			rng := rand.New(rand.NewSource(7))
			action := make([]float64, a.ActionDim())
			for step := 0; step < 30; step++ {
				for i := range action {
					action[i] = 2*rng.Float64() - 1
				}
				rA, _, err := a.StepInto(action, obsA)
				if err != nil {
					t.Fatal(err)
				}
				rB, _, err := b.StepInto(action, obsB)
				if err != nil {
					t.Fatal(err)
				}
				if rA != rB {
					t.Fatalf("nodes=%d %s step %d: rewards differ (%v vs %v)", nodes, name, step, rA, rB)
				}
				for i := range obsA {
					if obsA[i] != obsB[i] {
						t.Fatalf("nodes=%d %s step %d: obs[%d] differs", nodes, name, step, i)
					}
				}
				for i, an := range a.assign {
					if an != b.assign[i] {
						t.Fatalf("nodes=%d %s step %d: assignment[%d] differs", nodes, name, step, i)
					}
				}
			}
		}
	}
}

// TestClusterEnvPlacementHead checks the DRL head's decode: dims grow
// by the logit block, argmax moves chains, and ties break low.
func TestClusterEnvPlacementHead(t *testing.T) {
	e, err := NewCluster(clusterCfg(4, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !e.PlacementHead() {
		t.Fatal("placement head inactive")
	}
	knobDims := KnobsPerNF * e.NumNFs()
	if got, want := e.ActionDim(), knobDims+3*4; got != want {
		t.Fatalf("ActionDim = %d, want %d", got, want)
	}
	if got, want := e.StateDim(), StatePerNF*e.NumNFs()+2*4+3*4; got != want {
		t.Fatalf("StateDim = %d, want %d", got, want)
	}
	action := make([]float64, e.ActionDim())
	// Chain 0 → node 2, chain 1 → node 0 (tie across all logits),
	// chain 2 → node 3.
	for i := knobDims; i < len(action); i++ {
		action[i] = -1
	}
	action[knobDims+2] = 0.5
	action[knobDims+4+0] = -1 // all equal: lowest index wins
	action[knobDims+8+3] = 0.9
	obs := make([]float64, e.StateDim())
	if _, _, err := e.StepInto(action, obs); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 3}
	for c, n := range e.assign {
		if n != want[c] {
			t.Errorf("chain %d on node %d, want %d", c, n, want[c])
		}
	}
}

// TestClusterEnvPinnedPolicy: a pinned policy must fix the assignment
// for the whole episode regardless of actions, and the action vector
// must carry no logit block.
func TestClusterEnvPinnedPolicy(t *testing.T) {
	e, err := NewCluster(clusterCfg(2, 4, placement.FFDSwap{}))
	if err != nil {
		t.Fatal(err)
	}
	if e.PlacementHead() {
		t.Fatal("placement head active despite pinned policy")
	}
	if got, want := e.ActionDim(), KnobsPerNF*e.NumNFs(); got != want {
		t.Fatalf("ActionDim = %d, want %d", got, want)
	}
	before := append([]int(nil), e.assign...)
	rng := rand.New(rand.NewSource(3))
	action := make([]float64, e.ActionDim())
	obs := make([]float64, e.StateDim())
	for step := 0; step < 10; step++ {
		for i := range action {
			action[i] = 2*rng.Float64() - 1
		}
		if _, _, err := e.StepInto(action, obs); err != nil {
			t.Fatal(err)
		}
	}
	for c, n := range e.assign {
		if n != before[c] {
			t.Errorf("pinned assignment drifted: chain %d %d→%d", c, before[c], n)
		}
	}
}

// TestClusterEnvStepAllocs: the actor-facing StepInto path must not
// allocate in steady state.
func TestClusterEnvStepAllocs(t *testing.T) {
	e, err := NewCluster(clusterCfg(4, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	action := make([]float64, e.ActionDim())
	obs := make([]float64, e.StateDim())
	for i := range action {
		action[i] = 0.2
	}
	if _, _, err := e.StepInto(action, obs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := e.StepInto(action, obs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("StepInto allocs/run = %v, want 0", allocs)
	}
}

// TestClusterEnvObservationSane: finite values, one-hot block sums to
// chain count.
func TestClusterEnvObservationSane(t *testing.T) {
	e, err := NewCluster(clusterCfg(4, 6, placement.Relaxation{}))
	if err != nil {
		t.Fatal(err)
	}
	obs := e.Reset(99)
	var oneHot float64
	base := StatePerNF*e.NumNFs() + 2*e.NumNodes()
	for i, v := range obs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("obs[%d] = %v", i, v)
		}
		if i >= base {
			oneHot += v
		}
	}
	if oneHot != float64(e.NumChains()) {
		t.Errorf("one-hot block sums to %v, want %d", oneHot, e.NumChains())
	}
}
