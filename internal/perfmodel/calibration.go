package perfmodel

import (
	"greennfv/internal/hw/cache"
	"greennfv/internal/hw/power"
)

// Default returns the model calibrated to the paper's testbed class.
// The constants were fitted so the §3 micro-benchmarks reproduce in
// shape; internal/experiments' TestFig1Shape–TestFig4Shape check these
// acceptance criteria:
//
//   - Figure 1: chain throughput degrades and energy/MP rises as its
//     LLC share shrinks below its working set.
//   - Figure 2: throughput and energy grow non-linearly with DVFS
//     frequency (the time-domain miss penalty causes the sub-linear
//     throughput gain).
//   - Figure 3: throughput rises then falls with batch size; misses
//     fall then rise.
//   - Figure 4: throughput rises then falls with DMA buffer size;
//     energy/MP is U-shaped.
func Default() Config {
	return Config{
		Power:                power.Default(),
		Cache:                cache.XeonE5v4(),
		LinkBps:              10e9,
		NumCores:             16,
		MgmtCores:            0.5, // shared RX + TX threads
		MissPenaltyNs:        85,
		CallOverheadCycles:   2600,
		MbufBytes:            2048,
		PollIdleFraction:     1.0,  // DPDK busy-poll burns everything
		PollMixFraction:      0.10, // hybrid poll+callback residual
		IdleResidualBusyPoll: 0.62, // C-states disabled: idle cores near C1
		IdleResidualSleep:    0.05, // GreenNFV parks idle cores in C6
		DDIOEvictMax:         0.85,
		WindowSeconds:        10,
		StaticCoreWatts:      6,
		InterNFRefetchLines:  0.5,
	}
}

// StandardChain returns the evaluation chain the paper deploys per
// node: three NFs in series. The mix (firewall → NAT → IDS-lite
// monitor profile) covers header-only and state-heavy behaviour.
func StandardChain() ChainSpec {
	return ChainSpec{
		Name: "standard3",
		NFs: []NFSpec{
			{Name: "firewall", CyclesPerPacket: 900, StateBytes: 64 << 10, StateLinesPerPacket: 3},
			{Name: "nat", CyclesPerPacket: 1100, StateBytes: 512 << 10, StateLinesPerPacket: 4},
			{Name: "monitor", CyclesPerPacket: 800, StateBytes: 2 << 20, StateLinesPerPacket: 5},
		},
	}
}

// HeavyChain returns a state- and payload-heavy chain (IDS + crypto)
// used for the LLC sensitivity experiments: its working set makes LLC
// allocation decisive, as in paper Figure 1's chain C1.
func HeavyChain() ChainSpec {
	return ChainSpec{
		Name: "heavy3",
		NFs: []NFSpec{
			{Name: "ids", CyclesPerPacket: 900, CyclesPerByte: 2.0, StateBytes: 6 << 20, StateLinesPerPacket: 16},
			{Name: "crypto", CyclesPerPacket: 700, CyclesPerByte: 1.5, StateBytes: 2 << 20, StateLinesPerPacket: 6},
			{Name: "router", CyclesPerPacket: 600, StateBytes: 4 << 20, StateLinesPerPacket: 10},
		},
	}
}

// LightChain returns a header-only chain (chain C2 of Figure 1).
func LightChain() ChainSpec {
	return ChainSpec{
		Name: "light2",
		NFs: []NFSpec{
			{Name: "firewall", CyclesPerPacket: 900, StateBytes: 64 << 10, StateLinesPerPacket: 3},
			{Name: "nat", CyclesPerPacket: 1100, StateBytes: 256 << 10, StateLinesPerPacket: 4},
		},
	}
}

// DefaultKnobs returns the platform defaults the Baseline runs with:
// performance governor (max frequency), one dedicated core per NF,
// unpartitioned LLC (modelled as an even share), the stock DPDK
// mempool of 8191 × 2 KiB mbufs (~16 MB — far past the 2 MB DDIO
// partition, a classic untuned-deployment pitfall), and unbatched
// per-packet processing.
func DefaultKnobs(numNFs int) []NFKnobs {
	ks := make([]NFKnobs, numNFs)
	for i := range ks {
		ks[i] = NFKnobs{
			CPUShare:    1.0,
			FreqGHz:     2.1,
			LLCFraction: 1.0 / float64(numNFs),
			DMABytes:    16 << 20,
			Batch:       1,
		}
	}
	return ks
}

// KnobBounds reports the tunable ranges used by every controller and
// the RL action scaling: [CPUShare, FreqGHz, LLCFraction, DMABytes,
// Batch].
type KnobBounds struct {
	ShareMin, ShareMax float64
	FreqMin, FreqMax   float64
	LLCMin, LLCMax     float64
	DMAMin, DMAMax     int64
	BatchMin, BatchMax int
}

// DefaultBounds matches the paper's evaluation ranges.
func DefaultBounds() KnobBounds {
	return KnobBounds{
		ShareMin: 0.1, ShareMax: 4.0,
		FreqMin: 1.2, FreqMax: 2.1,
		LLCMin: 0.02, LLCMax: 1.0,
		DMAMin: 1 << 20, DMAMax: 40 << 20,
		BatchMin: 1, BatchMax: 256,
	}
}

// Clamp forces a knob set inside the bounds.
func (b KnobBounds) Clamp(k NFKnobs) NFKnobs {
	k.CPUShare = clamp(k.CPUShare, b.ShareMin, b.ShareMax)
	k.FreqGHz = clamp(k.FreqGHz, b.FreqMin, b.FreqMax)
	k.LLCFraction = clamp(k.LLCFraction, b.LLCMin, b.LLCMax)
	if k.DMABytes < b.DMAMin {
		k.DMABytes = b.DMAMin
	}
	if k.DMABytes > b.DMAMax {
		k.DMABytes = b.DMAMax
	}
	if k.Batch < b.BatchMin {
		k.Batch = b.BatchMin
	}
	if k.Batch > b.BatchMax {
		k.Batch = b.BatchMax
	}
	return k
}
