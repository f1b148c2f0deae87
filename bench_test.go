package greennfv

// The benchmark harness regenerates every figure of the paper's
// evaluation (the paper has no numbered tables). Each benchmark runs
// the corresponding experiment driver, prints the same rows/series
// the paper plots (once, on the first iteration) and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Budgets here are the bench-scale
// ones; cmd/experiments -full runs experiments.Full().

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"greennfv/internal/cluster"
	"greennfv/internal/experiments"
	"greennfv/internal/perfmodel"
)

// benchOptions returns the training budgets used by the benchmark
// harness: large enough for the paper's shapes, small enough that the
// whole suite completes in minutes.
func benchOptions() experiments.Options {
	o := experiments.Quick()
	o.TrainSteps = 1000
	o.QTrainSteps = 6000
	o.ControlSteps = 20
	return o
}

// benchSuite is a fresh suite at o. The Fig benchmarks build one per
// iteration, so every iteration trains its models instead of timing
// the models an earlier iteration's suite kept.
func benchSuite(b *testing.B, o experiments.Options) *experiments.Suite {
	b.Helper()
	s, err := experiments.NewSuite(o)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

var benchPrintOnce sync.Map

func printTableOnce(b *testing.B, t *experiments.Table) {
	b.Helper()
	if _, loaded := benchPrintOnce.LoadOrStore(t.ID, true); !loaded {
		if err := t.Render(os.Stdout); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01LLCAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkFig02CPUFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkFig03BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkFig04DMABuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkFig06TrainMaxThroughput(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, g, err := benchSuite(b, o).Fig6()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
		if snaps := g.Curve(); len(snaps) > 0 {
			snap := snaps[len(snaps)-1]
			b.ReportMetric(snap.ThroughputGbps, "Gbps")
			b.ReportMetric(snap.EnergyJ, "J")
		}
	}
}

// BenchmarkFig06TrainParallel is Figure 6's training budget and SLA
// through System.Train with the concurrent Ape-X mode (actor
// goroutines + batched learner) instead of the deterministic
// round-robin interleaving; on multi-core machines actor time overlaps
// learner time.
func BenchmarkFig06TrainParallel(b *testing.B) {
	o := benchOptions()
	agreement, err := MaxThroughputSLA(2000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = o.Seed
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.Train(agreement, TrainOptions{Steps: o.TrainSteps, Actors: o.Actors, Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07TrainMinEnergy(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, g, err := benchSuite(b, o).Fig7()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
		if snaps := g.Curve(); len(snaps) > 0 {
			snap := snaps[len(snaps)-1]
			b.ReportMetric(snap.ThroughputGbps, "Gbps")
			b.ReportMetric(snap.EnergyJ, "J")
		}
	}
}

func BenchmarkFig08TrainEfficiency(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, g, err := benchSuite(b, o).Fig8()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
		if snaps := g.Curve(); len(snaps) > 0 {
			b.ReportMetric(snaps[len(snaps)-1].Efficiency, "Gbps/kJ")
		}
	}
}

func BenchmarkFig09ModelComparison(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, rows, err := benchSuite(b, o).Fig9()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
		for _, r := range rows {
			switch r.Name {
			case "GreenNFV(MaxT)":
				b.ReportMetric(r.SpeedupVsBase, "MaxT-speedup")
			case "GreenNFV(MinE)":
				b.ReportMetric(r.EnergyVsBase*100, "MinE-energy%")
			}
		}
	}
}

func BenchmarkFig10FixedSLA(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := benchSuite(b, o).Fig10()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkFig11AmortizedSaving(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := benchSuite(b, o).Fig11()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkValidationDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ValidationDES()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkConsolidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExpConsolidation()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkAblationPER(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 600
	for i := 0; i < b.N; i++ {
		t, err := benchSuite(b, o).AblationPER()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkAblationActors(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 400
	for i := 0; i < b.N; i++ {
		t, err := benchSuite(b, o).AblationActors()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkAblationKnobs(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 400
	for i := 0; i < b.N; i++ {
		t, err := benchSuite(b, o).AblationKnobs()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

func BenchmarkAblationReward(b *testing.B) {
	o := benchOptions()
	o.TrainSteps = 400
	for i := 0; i < b.N; i++ {
		t, err := benchSuite(b, o).AblationReward()
		if err != nil {
			b.Fatal(err)
		}
		printTableOnce(b, t)
	}
}

// Substrate micro-benchmarks: the performance-critical primitives.

// benchClusterWorkload builds the six-chain service-function path the
// cluster figure evaluates: presets cycling standard/heavy/light, a
// linear hop chain, and the FigCluster latency budget.
func benchClusterWorkload() cluster.Workload {
	w := cluster.Workload{LatencyBudgetNs: 150e3}
	for i := 0; i < 6; i++ {
		var spec perfmodel.ChainSpec
		switch i % 3 {
		case 0:
			spec = perfmodel.StandardChain()
		case 1:
			spec = perfmodel.HeavyChain()
		default:
			spec = perfmodel.LightChain()
		}
		spec.Name = fmt.Sprintf("%s-%d", spec.Name, i)
		w.Chains = append(w.Chains, cluster.ChainLoad{
			Chain:   spec,
			Traffic: perfmodel.Traffic{OfferedPPS: 1.5e6, FrameBytes: 512, Burstiness: 1},
		})
		if i > 0 {
			w.Hops = append(w.Hops, cluster.Hop{From: i - 1, To: i, PPS: 600e3, FrameBytes: 512})
		}
	}
	return w
}

// BenchmarkClusterEvaluate measures the zero-alloc cluster evaluation
// at 1, 4, and 8 heterogeneous nodes — the inner loop of ClusterEnv
// stepping. Outside the Fig regression gate (it is a substrate
// micro-benchmark, not a figure), but recorded in BENCH.json like the
// rest of the root suite.
func BenchmarkClusterEvaluate(b *testing.B) {
	w := benchClusterWorkload()
	knobs := make([][]perfmodel.NFKnobs, len(w.Chains))
	for i := range w.Chains {
		knobs[i] = perfmodel.DefaultKnobs(len(w.Chains[i].Chain.NFs))
	}
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			topo := cluster.Heterogeneous(n)
			assign := make([]int, len(w.Chains))
			for i := range assign {
				assign[i] = i % n
			}
			var res cluster.Result
			// Warm the caller-owned scratch so the numbers show the
			// steady state, not the first-call growth.
			if err := topo.EvaluateClusterInto(&res, &w, knobs, assign, perfmodel.EvalOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := topo.EvaluateClusterInto(&res, &w, knobs, assign, perfmodel.EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkModelEvaluate(b *testing.B) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	_ = sys
	o := benchOptions()
	_ = o
	// One full analytic evaluation per iteration via the baseline
	// controller path.
	m, err := sys.MeasureBaseline(Baseline)
	if err != nil {
		b.Fatal(err)
	}
	_ = m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.MeasureBaseline(Baseline); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleNewSystem() {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		panic(err)
	}
	m, err := sys.MeasureBaseline(Baseline)
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline runs at about 2 Gbps: %v\n", m.ThroughputGbps > 1 && m.ThroughputGbps < 3.5)
	// Output: baseline runs at about 2 Gbps: true
}
