package experiments

import "greennfv/internal/perfmodel"

// uniform returns k repeated once per NF of chain.
func uniform(chain perfmodel.ChainSpec, k perfmodel.NFKnobs) []perfmodel.NFKnobs {
	knobs := make([]perfmodel.NFKnobs, len(chain.NFs))
	for i := range knobs {
		knobs[i] = k
	}
	return knobs
}

// Fig1 reproduces the LLC-allocation micro-benchmark (paper Figure
// 1): two co-located chains — C1 cache-hungry at 13 Mpps, C2 light at
// 1 Mpps — under four LLC splits, reporting miss rate, achieved
// throughput and energy per mega-packet for each.
func Fig1() (*Table, error) {
	cfg := perfmodel.Default()
	heavy := perfmodel.HeavyChain()
	light := perfmodel.LightChain()
	t := &Table{
		ID:    "fig1",
		Title: "LLC allocation micro-benchmark (C1=13Mpps heavy, C2=1Mpps light)",
		Columns: []string{"split", "C1 miss/s", "C2 miss/s", "C1 Gbps", "C2 Gbps",
			"C1 J/MP", "C2 J/MP"},
	}
	opt := perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
	for _, split := range []float64{0.9, 0.7, 0.4, 0.2} {
		kH := perfmodel.NFKnobs{CPUShare: 4, FreqGHz: 2.1, LLCFraction: split / 3,
			DMABytes: 2 << 20, Batch: 64}
		rH, err := cfg.Evaluate(heavy, uniform(heavy, kH),
			perfmodel.Traffic{OfferedPPS: 13e6, FrameBytes: 64, Burstiness: 1}, opt)
		if err != nil {
			return nil, err
		}
		kL := perfmodel.NFKnobs{CPUShare: 1, FreqGHz: 2.1, LLCFraction: (1 - split) / 2,
			DMABytes: 2 << 20, Batch: 64}
		rL, err := cfg.Evaluate(light, uniform(light, kL),
			perfmodel.Traffic{OfferedPPS: 1e6, FrameBytes: 64, Burstiness: 1}, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			f0(split*100)+"%+"+f0((1-split)*100)+"%",
			f0(rH.MissesPerSecond/1e3), f0(rL.MissesPerSecond/1e3),
			f2(rH.ThroughputGbps), f2(rL.ThroughputGbps),
			f0(rH.EnergyPerMPkt), f0(rL.EnergyPerMPkt),
		)
	}
	return t, nil
}

// Fig2 reproduces the CPU-frequency micro-benchmark (paper Figure 2):
// a 3-NF chain fed 1518 B line-rate traffic swept across the DVFS
// ladder.
func Fig2() (*Table, error) {
	cfg := perfmodel.Default()
	chain := perfmodel.HeavyChain()
	t := &Table{
		ID:      "fig2",
		Title:   "CPU frequency micro-benchmark (3-NF chain, 1518B line rate)",
		Columns: []string{"GHz", "Gbps", "Energy J"},
	}
	tr := perfmodel.Traffic{OfferedPPS: 812743, FrameBytes: 1518, Burstiness: 1}
	opt := perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
	for f := 1.2; f <= 2.1+1e-9; f += 0.1 {
		k := perfmodel.NFKnobs{CPUShare: 2, FreqGHz: f, LLCFraction: 0.15,
			DMABytes: 2 << 20, Batch: 32}
		r, err := cfg.Evaluate(chain, uniform(chain, k), tr, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(f1(f), f2(r.ThroughputGbps), f0(r.EnergyJoules))
	}
	return t, nil
}

// Fig3 reproduces the batch-size micro-benchmark (paper Figure 3):
// throughput, energy and LLC misses across burst sizes.
func Fig3() (*Table, error) {
	cfg := perfmodel.Default()
	chain := perfmodel.StandardChain()
	t := &Table{
		ID:      "fig3",
		Title:   "Batch size micro-benchmark (256B, 3 Mpps offered)",
		Columns: []string{"batch", "Gbps", "Energy kJ", "Misses x1e4/s"},
	}
	tr := perfmodel.Traffic{OfferedPPS: 3e6, FrameBytes: 256, Burstiness: 1}
	opt := perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
	for _, b := range []int{1, 25, 50, 100, 150, 200, 250, 256} {
		k := perfmodel.NFKnobs{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 0.06,
			DMABytes: 2 << 20, Batch: b}
		r, err := cfg.Evaluate(chain, uniform(chain, k), tr, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(b), f2(r.ThroughputGbps),
			f2(r.EnergyJoules/1000), f0(r.MissesPerSecond/1e4))
	}
	return t, nil
}

// Fig4 reproduces the DMA-buffer micro-benchmark (paper Figure 4):
// throughput and energy per mega-packet across buffer sizes for 64 B
// and 1518 B frames under bursty line-rate load.
func Fig4() (*Table, error) {
	cfg := perfmodel.Default()
	chain := perfmodel.LightChain()
	t := &Table{
		ID:      "fig4",
		Title:   "DMA buffer micro-benchmark (bursty line-rate load)",
		Columns: []string{"MB", "Gbps 64B", "Gbps 1518B", "J/MP 64B", "J/MP 1518B"},
	}
	opt := perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
	for _, mb := range []int64{1, 2, 4, 8, 12, 16, 24, 32, 40} {
		knobs := uniform(chain, perfmodel.NFKnobs{CPUShare: 1, FreqGHz: 2.1,
			LLCFraction: 0.25, DMABytes: mb << 20, Batch: 64})
		r64, err := cfg.Evaluate(chain, knobs,
			perfmodel.Traffic{OfferedPPS: 3.0e6, FrameBytes: 64, Burstiness: 128}, opt)
		if err != nil {
			return nil, err
		}
		r1518, err := cfg.Evaluate(chain, knobs,
			perfmodel.Traffic{OfferedPPS: 700e3, FrameBytes: 1518, Burstiness: 128}, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(int(mb)),
			f2(r64.ThroughputGbps), f2(r1518.ThroughputGbps),
			f0(r64.EnergyPerMPkt), f0(r1518.EnergyPerMPkt))
	}
	return t, nil
}
