package cluster

import (
	"math"
	"testing"

	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
)

// workload3 builds a three-chain workload with a two-hop path.
func workload3() Workload {
	return Workload{
		Chains: []ChainLoad{
			{Chain: perfmodel.StandardChain(), Traffic: perfmodel.Traffic{OfferedPPS: 2e6, FrameBytes: 512, Burstiness: 1}},
			{Chain: perfmodel.HeavyChain(), Traffic: perfmodel.Traffic{OfferedPPS: 1e6, FrameBytes: 800, Burstiness: 1}},
			{Chain: perfmodel.LightChain(), Traffic: perfmodel.Traffic{OfferedPPS: 3e6, FrameBytes: 256, Burstiness: 1}},
		},
		Hops: []Hop{
			{From: 0, To: 1, PPS: 1e6, FrameBytes: 512},
			{From: 1, To: 2, PPS: 8e5, FrameBytes: 800},
		},
		LatencyBudgetNs: 1e6,
	}
}

func defaultKnobs(w *Workload) [][]perfmodel.NFKnobs {
	ks := make([][]perfmodel.NFKnobs, len(w.Chains))
	for i := range w.Chains {
		ks[i] = perfmodel.DefaultKnobs(len(w.Chains[i].Chain.NFs))
	}
	return ks
}

// TestSingleNodeReduction pins the tentpole parity invariant: a
// 1-node homogeneous cluster hosting one chain is bit-for-bit the
// existing perfmodel path.
func TestSingleNodeReduction(t *testing.T) {
	topo := Homogeneous(1)
	chain := perfmodel.StandardChain()
	tr := perfmodel.Traffic{OfferedPPS: 2e6, FrameBytes: 512, Burstiness: 1}
	knobs := perfmodel.DefaultKnobs(len(chain.NFs))
	for _, opt := range []perfmodel.EvalOptions{
		{},
		{BusyPoll: true, NoSleep: true},
	} {
		model := perfmodel.Default()
		want, err := model.Evaluate(chain, knobs, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		w := Workload{Chains: []ChainLoad{{Chain: chain, Traffic: tr}}}
		got, err := topo.EvaluateCluster(&w, [][]perfmodel.NFKnobs{knobs}, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.ThroughputGbps != want.ThroughputGbps {
			t.Errorf("throughput %v != single-node %v", got.ThroughputGbps, want.ThroughputGbps)
		}
		if got.EnergyJ != want.EnergyJoules {
			t.Errorf("energy %v != single-node %v", got.EnergyJ, want.EnergyJoules)
		}
		if got.PerNode[0].PowerWatts != want.PowerWatts {
			t.Errorf("power %v != single-node %v", got.PerNode[0].PowerWatts, want.PowerWatts)
		}
		if got.PerNode[0].Utilization != want.Utilization {
			t.Errorf("utilization %v != single-node %v", got.PerNode[0].Utilization, want.Utilization)
		}
		if got.LinkEnergyJ != 0 || got.CrossGbps != 0 || got.MaxPathLatencyNs != 0 {
			t.Errorf("single node has fabric costs: %+v", got)
		}
		if got.SLAGbps != want.ThroughputGbps {
			t.Errorf("SLA-credited %v != delivered %v", got.SLAGbps, want.ThroughputGbps)
		}
	}
}

// TestCrossNodeCosts: splitting a hop across nodes must add link
// energy and latency that co-location avoids.
func TestCrossNodeCosts(t *testing.T) {
	topo := Homogeneous(2)
	w := workload3()
	knobs := defaultKnobs(&w)

	together, err := topo.EvaluateCluster(&w, knobs, []int{0, 0, 0}, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	split, err := topo.EvaluateCluster(&w, knobs, []int{0, 1, 0}, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if together.LinkEnergyJ != 0 {
		t.Errorf("co-located link energy = %v, want 0", together.LinkEnergyJ)
	}
	if split.LinkEnergyJ <= 0 {
		t.Errorf("split link energy = %v, want > 0", split.LinkEnergyJ)
	}
	if split.CrossGbps <= 0 {
		t.Errorf("split cross traffic = %v, want > 0", split.CrossGbps)
	}
	// Chain 2 sits two cross hops downstream.
	if want := 2 * topo.Link.LatencyNs; split.MaxPathLatencyNs != want {
		t.Errorf("path latency = %v, want %v", split.MaxPathLatencyNs, want)
	}
	if split.NodesUsed != 2 || together.NodesUsed != 1 {
		t.Errorf("nodes used: split %d (want 2), together %d (want 1)", split.NodesUsed, together.NodesUsed)
	}
}

// TestLatencyBudgetGatesSLA: a budget below the path latency must
// drop the downstream chains from SLA-credited throughput.
func TestLatencyBudgetGatesSLA(t *testing.T) {
	topo := Homogeneous(2)
	w := workload3()
	w.LatencyBudgetNs = topo.Link.LatencyNs / 2 // any cross hop busts it
	knobs := defaultKnobs(&w)
	res, err := topo.EvaluateCluster(&w, knobs, []int{0, 1, 0}, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAGbps >= res.ThroughputGbps {
		t.Errorf("SLA-credited %v not below delivered %v despite busted budget",
			res.SLAGbps, res.ThroughputGbps)
	}
	// Chain 0 has no upstream hops and must still be credited.
	if res.SLAGbps != res.PerChain[0].ThroughputGbps {
		t.Errorf("SLA-credited %v, want chain 0's %v", res.SLAGbps, res.PerChain[0].ThroughputGbps)
	}
}

// TestLinkBandwidthDerates: offered cross traffic beyond the pair
// bandwidth must derate delivered throughput downstream.
func TestLinkBandwidthDerates(t *testing.T) {
	topo := Homogeneous(2)
	topo.Link.BandwidthBps = 1e9 // 1 Gb/s: hop 0→1 offers ~4 Gb/s
	w := workload3()
	knobs := defaultKnobs(&w)
	res, err := topo.EvaluateCluster(&w, knobs, []int{0, 1, 1}, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossGbps > 1.0+1e-9 {
		t.Errorf("carried cross traffic %v exceeds 1 Gb/s cap", res.CrossGbps)
	}
	full := res.PerChain[0].ThroughputGbps + res.PerChain[1].ThroughputGbps + res.PerChain[2].ThroughputGbps
	if res.ThroughputGbps >= full {
		t.Errorf("delivered %v not derated below per-chain sum %v", res.ThroughputGbps, full)
	}
}

// TestHeterogeneousAggregation: co-located chains on a small node
// must draw less power than on a big node at equal work, and the
// node-wide LLC rescale must keep co-located chains evaluable.
func TestHeterogeneousAggregation(t *testing.T) {
	topo := Heterogeneous(2) // node 0 big, node 1 small
	w := workload3()
	knobs := defaultKnobs(&w)
	res, err := topo.EvaluateCluster(&w, knobs, []int{1, 1, 1}, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerNode[1].Chains != 3 || res.PerNode[0].Chains != 0 {
		t.Fatalf("occupancy = %+v", res.PerNode)
	}
	// Empty big node idles near its idle power; the loaded small node
	// draws more than its own idle floor but less than the big PMax.
	if res.PerNode[1].PowerWatts <= 55 || res.PerNode[1].PowerWatts >= 330 {
		t.Errorf("small node power %v outside (55, 330)", res.PerNode[1].PowerWatts)
	}
	if res.PerNode[0].PowerWatts >= res.PerNode[1].PowerWatts {
		t.Errorf("empty big node (%v W) not below loaded small node (%v W)",
			res.PerNode[0].PowerWatts, res.PerNode[1].PowerWatts)
	}
}

// TestPartialResultsOnError: a failing chain must not destroy the
// other chains' results.
func TestPartialResultsOnError(t *testing.T) {
	topo := Homogeneous(2)
	w := workload3()
	knobs := defaultKnobs(&w)
	w.Chains[1].Traffic.FrameBytes = 1 // below MinFrame: chain 1 fails inside EvaluateInto
	var res Result
	err := topo.EvaluateClusterInto(&res, &w, knobs, []int{0, 1, 0}, perfmodel.EvalOptions{})
	if err == nil {
		t.Fatal("want error for bad chain")
	}
	if res.PerChain[0].ThroughputGbps <= 0 || res.PerChain[2].ThroughputGbps <= 0 {
		t.Errorf("healthy chains lost their partial results: %+v, %+v",
			res.PerChain[0], res.PerChain[2])
	}
}

// TestEvaluateClusterAllocs is the satellite alloc gate: steady-state
// cluster evaluation must average ≤ 1 allocation per node.
func TestEvaluateClusterAllocs(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		topo := Heterogeneous(n)
		w := workload3()
		knobs := defaultKnobs(&w)
		assign := make([]int, len(w.Chains))
		for c := range assign {
			assign[c] = c % n
		}
		var res Result
		// Warm the scratch.
		if err := topo.EvaluateClusterInto(&res, &w, knobs, assign, perfmodel.EvalOptions{}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := topo.EvaluateClusterInto(&res, &w, knobs, assign, perfmodel.EvalOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(n) {
			t.Errorf("n=%d: %v allocs/run, want <= %d", n, allocs, n)
		}
	}
}

// TestValidation covers topology and workload validation.
func TestValidation(t *testing.T) {
	empty := Topology{}
	if err := empty.Validate(); err == nil {
		t.Error("empty topology validated")
	}
	mixed := Homogeneous(2)
	mixed.Nodes[1].Model.WindowSeconds = 5
	if err := mixed.Validate(); err == nil {
		t.Error("mismatched windows validated")
	}
	het := Heterogeneous(8)
	if err := het.Validate(); err != nil {
		t.Errorf("preset failed validation: %v", err)
	}

	w := workload3()
	if err := w.Validate(); err != nil {
		t.Errorf("good workload: %v", err)
	}
	cyc := workload3()
	cyc.Hops = append(cyc.Hops, Hop{From: 2, To: 0, PPS: 1, FrameBytes: 64})
	if err := cyc.Validate(); err == nil {
		t.Error("cyclic hop graph validated")
	}
	dup := workload3()
	dup.Chains[1].Chain.Name = dup.Chains[0].Chain.Name
	if err := dup.Validate(); err == nil {
		t.Error("duplicate chain names validated")
	}
}

// TestPlacementProblem: the derived instance must be solvable and
// must pull hop-linked chains together.
func TestPlacementProblem(t *testing.T) {
	topo := Heterogeneous(4)
	w := workload3()
	p := w.PlacementProblem(&topo)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 4 || len(p.Chains) != 3 || len(p.Affinities) != 2 {
		t.Fatalf("derived problem shape: %d nodes, %d chains, %d affinities",
			len(p.Nodes), len(p.Chains), len(p.Affinities))
	}
	sol, err := placement.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.CrossPPS != 0 {
		t.Errorf("FFD+swap left %v PPS crossing nodes on an easy instance", sol.CrossPPS)
	}
	if math.IsNaN(sol.CrossPPS) {
		t.Error("NaN cross traffic")
	}
}

// EvaluateCluster is EvaluateClusterInto with a fresh result.
func (t *Topology) EvaluateCluster(w *Workload, knobs [][]perfmodel.NFKnobs, assign []int, opt perfmodel.EvalOptions) (Result, error) {
	var res Result
	if err := t.EvaluateClusterInto(&res, w, knobs, assign, opt); err != nil {
		return Result{}, err
	}
	return res, nil
}
