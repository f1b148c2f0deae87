package env

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// TestClusterEnvDeterminism: same seed + same placement policy ⇒
// bit-identical episode traces at 1, 2, and 8 nodes.
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

// stubPolicy returns a fixed solution, unvetted: what a policy outside
// this repo's two could hand NewCluster.
type stubPolicy struct {
	assign placement.Assignment
	err    error
}

func (stubPolicy) Name() string { return "stub" }

func (s stubPolicy) Solve(placement.Problem) (placement.Solution, error) {
	return placement.Solution{Assignment: s.assign}, s.err
}

// TestClusterEnvPinVetting: a pinned assignment is vetted when it is
// pinned. A policy that leaves a chain out, one whose assignment
// cannot tell two same-named chains apart, and a node index outside
// the topology are each an error from the constructor that names the
// policy — not a silent node 0, not a panic from the first evaluation.
func TestClusterEnvPinVetting(t *testing.T) {
	cfg := clusterCfg(2, 3, nil)
	names := make([]string, len(cfg.Chains))
	for i := range cfg.Chains {
		names[i] = cfg.Chains[i].Chain.Name
	}
	all := func(node int) placement.Assignment {
		a := placement.Assignment{}
		for _, n := range names {
			a[n] = node
		}
		return a
	}

	omit := all(1)
	delete(omit, names[2])
	renamed := all(1)
	delete(renamed, names[2])
	renamed["nobody"] = 1
	high := all(0)
	high[names[1]] = 2
	low := all(0)
	low[names[0]] = -1
	for _, tc := range []struct {
		name   string
		assign placement.Assignment
		want   string
	}{
		{"omitted chain", omit, "names 2 chains, workload has 3"},
		{"omitted chain, same count", renamed, "omits chain"},
		{"index past the last node", high, "on node 2"},
		{"negative index", low, "on node -1"},
	} {
		c := cfg
		c.Placement = stubPolicy{assign: tc.assign}
		_, err := NewCluster(c)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "placement (stub)") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the policy and the defect (%q)", tc.name, err, tc.want)
		}
	}

	// Two chains sharing a name: cluster.Workload.Validate refuses the
	// workload before any policy runs, and the pin-time check does not
	// lean on that ordering.
	dup := cfg
	dup.Chains = append([]ClusterChain(nil), cfg.Chains...)
	dup.Chains[2].Chain.Name = names[0]
	dup.Placement = stubPolicy{assign: all(1)}
	if _, err := NewCluster(dup); err == nil {
		t.Error("duplicate chain name accepted")
	}
	if _, err := assignmentByChain(placement.Assignment{names[0]: 0, names[1]: 1, "spare": 1}, dup.Chains); err == nil ||
		!strings.Contains(err.Error(), "two chains named") {
		t.Errorf("assignmentByChain on a duplicate name: %v", err)
	}

	// The already-resolved path takes the same checks, and refuses to
	// guess when handed a policy as well.
	for _, a := range [][]int{{0, 1}, {0, 1, 2}, {0, -1, 1}} {
		c := cfg
		c.Assignment = a
		if _, err := NewCluster(c); err == nil || !strings.Contains(err.Error(), "pinned assignment") {
			t.Errorf("Assignment %v: err = %v", a, err)
		}
	}
	both := cfg
	both.Placement, both.Assignment = placement.FFDSwap{}, []int{0, 0, 0}
	if _, err := NewCluster(both); err == nil {
		t.Error("Placement and Assignment together accepted")
	}
	failing := cfg
	failing.Placement = stubPolicy{err: placement.ErrInfeasible}
	if _, err := NewCluster(failing); !errors.Is(err, placement.ErrInfeasible) {
		t.Errorf("Solve error not passed up: %v", err)
	}
}

// TestClusterEnvResolvedAssignment: an environment handed the
// assignment another one resolved is the same environment — same
// dimensions, no placement head, the same episode bit for bit — so a
// caller may solve once and build the rest from the result.
func TestClusterEnvResolvedAssignment(t *testing.T) {
	split := stubPolicy{assign: placement.Assignment{}}
	cfg := clusterCfg(4, 4, nil)
	for i := range cfg.Chains {
		split.assign[cfg.Chains[i].Chain.Name] = i % 2
	}
	for _, pol := range []placement.Policy{placement.FFDSwap{}, placement.Relaxation{}, split} {
		cfg.Placement, cfg.Assignment = pol, nil
		a, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Placement, cfg.Assignment = nil, a.Assignment()
		b, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.PlacementHead() || b.ActionDim() != a.ActionDim() || b.StateDim() != a.StateDim() {
			t.Fatalf("%s: resolved env differs in shape: head=%v action %d/%d state %d/%d",
				pol.Name(), b.PlacementHead(), b.ActionDim(), a.ActionDim(), b.StateDim(), a.StateDim())
		}
		obsA, obsB := a.Reset(5), b.Reset(5)
		rng := rand.New(rand.NewSource(11))
		action := make([]float64, a.ActionDim())
		for step := 0; step < 20; step++ {
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
			if rA != rB || !slices.Equal(obsA, obsB) || !slices.Equal(a.Assignment(), b.Assignment()) {
				t.Fatalf("%s step %d: resolved env diverged", pol.Name(), step)
			}
		}
	}
}
