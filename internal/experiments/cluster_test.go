package experiments

import (
	"strings"
	"testing"

	"greennfv/internal/cluster"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/sla"
	"greennfv/internal/sweep"
)

// tinyOptions keeps cluster training short enough for unit tests.
func tinyOptions() Options {
	return Options{TrainSteps: 60, QTrainSteps: 100, Actors: 2, ControlSteps: 8, Seed: 17}
}

// TestFigClusterDeterministic: the cluster figure's rendered table is
// byte-identical across runs.
func TestFigClusterDeterministic(t *testing.T) {
	t1, rows1, err := newSuite(t, tinyOptions()).FigCluster()
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := newSuite(t, tinyOptions()).FigCluster()
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 strings.Builder
	if err := t1.Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Render(&b2); err != nil {
		t.Fatal(err)
	}
	a, b := b1.String(), b2.String()
	if a != b {
		t.Fatalf("FigCluster not byte-identical across runs:\n%s\n---\n%s", a, b)
	}
	if len(rows1) != 9 {
		t.Fatalf("rows = %d, want 9 (3 sizes × 3 policies)", len(rows1))
	}
	for _, r := range rows1 {
		if r.ThroughputGbps <= 0 || r.EnergyJ <= 0 {
			t.Errorf("%d-node %s: non-positive cell %+v", r.Nodes, r.Placement, r)
		}
		if r.NodesUsed < 1 || r.NodesUsed > r.Nodes {
			t.Errorf("%d-node %s: nodes used %d out of range", r.Nodes, r.Placement, r.NodesUsed)
		}
	}
	for _, col := range []string{"nodes", "placement", "Gbps", "Energy J"} {
		if !strings.Contains(a, col) {
			t.Errorf("rendered table missing column %q", col)
		}
	}
}

// TestClusterAnalyticBaselinesConsolidate: with more nodes than the
// workload needs, the analytic policies must not scatter chains onto
// every host (idle-power discipline), and the relaxation must respect
// its own bound.
func TestClusterAnalyticBaselinesConsolidate(t *testing.T) {
	for _, pol := range sweep.DefaultPlacements()[1:] {
		chains, hops := env.StandardClusterChains(6)
		e, err := env.NewCluster(env.ClusterConfig{
			Topology:        cluster.Heterogeneous(8),
			Chains:          chains,
			Hops:            hops,
			LatencyBudgetNs: 150e3,
			Bounds:          perfmodel.DefaultBounds(),
			SLA:             sla.NewEnergyEfficiency(),
			LoadJitter:      0.05,
			Seed:            17,
			Placement:       pol.Policy,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		used := map[int]bool{}
		for n, node := range e.LastCluster().PerNode {
			if node.Chains > 0 {
				used[n] = true
			}
		}
		if len(used) >= 8 {
			t.Errorf("%s scattered 6 chains across all 8 nodes", pol.Name)
		}
	}
}
