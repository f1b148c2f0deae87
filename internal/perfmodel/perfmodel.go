package perfmodel

import (
	"errors"
	"fmt"
	"math"

	"greennfv/internal/hw/cache"
	"greennfv/internal/hw/dma"
	"greennfv/internal/hw/power"
	"greennfv/internal/traffic"
)

// NFSpec is one network function's computational profile, normally
// derived from an onvm handler's CostModel.
type NFSpec struct {
	// Name labels the NF in reports.
	Name string
	// CyclesPerPacket is fixed per-packet work.
	CyclesPerPacket float64
	// CyclesPerByte is payload-touching work.
	CyclesPerByte float64
	// StateBytes is cache-resident state.
	StateBytes int64
	// StateLinesPerPacket is how many distinct state cache lines one
	// packet touches (table walks); misses on these stall the NF.
	StateLinesPerPacket float64
}

// ChainSpec is a service chain's profile.
type ChainSpec struct {
	Name string
	NFs  []NFSpec
}

// TotalStateBytes sums the chain's NF state.
func (c *ChainSpec) TotalStateBytes() int64 {
	var sum int64
	for i := range c.NFs {
		sum += c.NFs[i].StateBytes
	}
	return sum
}

// NFKnobs is the paper's per-NF action vector (equation 7):
// CPU share c, CPU frequency cf, LLC allocation llc, DMA buffer b,
// batch size bs.
type NFKnobs struct {
	// CPUShare is the NF's core allocation in cores (0.05–4.0;
	// the paper plots it as 5%–400%).
	CPUShare float64
	// FreqGHz is the NF's core DVFS setting.
	FreqGHz float64
	// LLCFraction is the NF's share of the non-DDIO LLC, in [0,1].
	// Across a node the fractions of all NFs should sum to <= 1;
	// Evaluate proportionally rescales if they exceed it.
	LLCFraction float64
	// DMABytes is the NF's packet-buffer allocation. For the chain
	// head this is the NIC DMA ring (DDIO-sensitive); for interior
	// NFs it is their inter-NF ring footprint.
	DMABytes int64
	// Batch is the dequeue burst size.
	Batch int
}

// Traffic is the offered load for one chain.
type Traffic struct {
	// OfferedPPS is the aggregate packet arrival rate.
	OfferedPPS float64
	// FrameBytes is the (mean) frame size.
	FrameBytes int
	// Burstiness is the index of dispersion of arrivals
	// (1 = Poisson, 0 = CBR, >1 = bursty).
	Burstiness float64
}

// NFResult is the per-NF evaluation outcome.
type NFResult struct {
	ServiceTimeNs float64
	CapacityPPS   float64
	BusyCores     float64
	MissRate      float64
}

// Result is a chain evaluation outcome over one measurement window.
type Result struct {
	// ThroughputPPS and ThroughputGbps are achieved goodput.
	ThroughputPPS  float64
	ThroughputGbps float64
	// DropProb is the RX-drop probability at the chain head.
	DropProb float64
	// MissRate is the packet-weighted mean LLC miss rate.
	MissRate float64
	// MissesPerSecond is the absolute LLC miss rate.
	MissesPerSecond float64
	// CPUPercent is Σ busy cores × 100 (the paper's 0–400% axis).
	CPUPercent float64
	// Utilization is the whole-server busy fraction in [0,1].
	Utilization float64
	// PowerWatts is mean server power over the window.
	PowerWatts float64
	// EnergyJoules is PowerWatts × window.
	EnergyJoules float64
	// EnergyPerMPkt is joules per million processed packets.
	EnergyPerMPkt float64
	// Efficiency is the paper's λ = throughput/energy
	// (Gbps per kilojoule).
	Efficiency float64
	// PerNF holds per-NF detail.
	PerNF []NFResult
}

// Config is the calibrated testbed model.
type Config struct {
	Power power.Model
	Cache cache.Config
	// LinkBps is the NIC line rate (10 GbE).
	LinkBps float64
	// NumCores is the node's core count.
	NumCores int
	// MgmtCores is the constant RX/TX + manager overhead in cores.
	MgmtCores float64
	// MissPenaltyNs is the DRAM stall for one LLC miss. It is a time,
	// not cycles, so higher frequency does not shrink it — this is
	// what makes Figure 2's throughput gain sub-linear in f.
	MissPenaltyNs float64
	// CallOverheadCycles is the fixed per-burst cost one NF pays
	// (ring dequeue, function dispatch); amortized by the batch knob.
	CallOverheadCycles float64
	// MbufBytes is the buffer slot size for working-set accounting.
	MbufBytes int64
	// PollIdleFraction is the share of *idle* allocated CPU still
	// burned when busy-polling. 1.0 models DPDK poll mode (the
	// Baseline); GreenNFV's poll/callback mix uses PollMixFraction.
	PollIdleFraction float64
	// PollMixFraction is the residual idle burn under the paper's
	// hybrid poll+callback NF management.
	PollMixFraction float64
	// IdleResidualBusyPoll is the effective utilization of
	// *unallocated* cores under the Baseline's DPDK tuning, which
	// disables C-states and pins the performance governor: idle cores
	// never sleep deeper than C1.
	IdleResidualBusyPoll float64
	// IdleResidualSleep is the same residual when GreenNFV's NF
	// sleeping is active (idle cores park in C6).
	IdleResidualSleep float64
	// DDIOEvictMax caps the extra packet-miss term caused by DMA
	// buffers overflowing the DDIO partition.
	DDIOEvictMax float64
	// WindowSeconds is the measurement window for energy (10 s: the
	// paper's per-experiment energies are 1–4 kJ at 100–400 W).
	WindowSeconds float64
	// StaticCoreWatts is the frequency-independent power floor of an
	// *active* core (leakage, uncore share, L1/L2). Without it the
	// model admits a "many slow cores" free lunch — allocating every
	// core at minimum frequency — that real silicon does not offer;
	// with it the share/frequency trade-off has a genuine interior
	// optimum.
	StaticCoreWatts float64
	// InterNFRefetchLines is the fraction of a packet's cache lines a
	// downstream NF must re-touch.
	InterNFRefetchLines float64
}

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	switch {
	case c.LinkBps <= 0:
		return errors.New("perfmodel: LinkBps must be positive")
	case c.NumCores <= 0:
		return errors.New("perfmodel: NumCores must be positive")
	case c.MissPenaltyNs <= 0:
		return errors.New("perfmodel: MissPenaltyNs must be positive")
	case c.CallOverheadCycles < 0:
		return errors.New("perfmodel: CallOverheadCycles cannot be negative")
	case c.WindowSeconds <= 0:
		return errors.New("perfmodel: WindowSeconds must be positive")
	case c.PollIdleFraction < 0 || c.PollIdleFraction > 1:
		return errors.New("perfmodel: PollIdleFraction must be in [0,1]")
	case c.PollMixFraction < 0 || c.PollMixFraction > 1:
		return errors.New("perfmodel: PollMixFraction must be in [0,1]")
	}
	return nil
}

// EvalOptions selects evaluation variants. The zero value is the
// GreenNFV platform: poll/callback mix and deep C-state sleeping.
type EvalOptions struct {
	// BusyPoll uses PollIdleFraction (DPDK poll mode) instead of the
	// GreenNFV poll/callback mix for allocated-but-idle CPU share.
	BusyPoll bool
	// NoSleep disables deep C-states on unallocated cores (the
	// Baseline's DPDK tuning); EE-Pstate busy-polls (BusyPoll true)
	// but manages C-states (NoSleep false).
	NoSleep bool
}

// Evaluate runs the analytic model for one chain under per-NF knobs.
// knobs must have one entry per NF in the chain.
func (c *Config) Evaluate(chain ChainSpec, knobs []NFKnobs, tr Traffic, opt EvalOptions) (Result, error) {
	var res Result
	if err := c.EvaluateInto(&res, chain, knobs, tr, opt); err != nil {
		return Result{}, err
	}
	return res, nil
}

// EvaluateInto is Evaluate with a caller-owned result: the PerNF
// scratch inside res is reused when its capacity suffices, so a
// caller that evaluates in a loop (the RL environment, grid sweeps)
// performs no allocations in steady state. On error res is left in an
// unspecified state. res must not be shared between goroutines that
// evaluate concurrently.
func (c *Config) EvaluateInto(res *Result, chain ChainSpec, knobs []NFKnobs, tr Traffic, opt EvalOptions) error {
	if len(chain.NFs) == 0 {
		return errors.New("perfmodel: empty chain")
	}
	if len(knobs) != len(chain.NFs) {
		return fmt.Errorf("perfmodel: %d knob sets for %d NFs", len(knobs), len(chain.NFs))
	}
	if tr.OfferedPPS < 0 || tr.FrameBytes < traffic.MinFrame {
		return fmt.Errorf("perfmodel: invalid traffic %+v", tr)
	}
	burst := tr.Burstiness
	if burst < 0 {
		burst = 0
	}

	sharedLLC := float64(c.Cache.SharedBytes())
	// Rescale LLC fractions that oversubscribe the cache.
	var llcSum float64
	for i := range knobs {
		f := clamp(knobs[i].LLCFraction, 0, 1)
		llcSum += f
	}
	llcScale := 1.0
	if llcSum > 1 {
		llcScale = 1 / llcSum
	}

	lines := float64((tr.FrameBytes + 63) / 64)
	ddioBytes := c.Cache.DDIOBytes()

	// Head-of-chain packet-data miss rate: cold floor plus DDIO
	// overflow when the NIC DMA buffer spills past the DDIO ways.
	headDMA := knobs[0].DMABytes
	packetMiss := c.Cache.ColdMissRate +
		cache.DDIOOverflowEvictions(headDMA, ddioBytes, c.DDIOEvictMax)
	if packetMiss > 1 {
		packetMiss = 1
	}

	perNF := growNF(res.PerNF, len(chain.NFs))
	var weightedMiss float64
	var chainLLCBytes float64
	for i := range chain.NFs {
		nf := &chain.NFs[i]
		k := &knobs[i]
		freq := c.Power.ClampFreq(k.FreqGHz)
		share := clamp(k.CPUShare, 0.01, float64(c.NumCores))
		batch := k.Batch
		if batch < 1 {
			batch = 1
		}

		alloc := clamp(k.LLCFraction, 0, 1) * llcScale * sharedLLC
		chainLLCBytes += alloc

		// Working set: NF state plus the in-flight batch buffers of
		// the whole pipeline (each stage holds a burst, and the same
		// packets must stay resident between stages to avoid
		// re-fetch) plus this NF's ring footprint.
		ws := float64(nf.StateBytes) +
			float64(batch)*float64(c.MbufBytes)*float64(len(chain.NFs))
		if i > 0 {
			ws += float64(k.DMABytes) / 4 // interior ring footprint, partially resident
		}
		stateMiss := cache.MissRate(int64(ws), int64(alloc), c.Cache.ColdMissRate)

		// Cycles: fixed + payload + per-burst dispatch amortized.
		cycles := nf.CyclesPerPacket + nf.CyclesPerByte*float64(tr.FrameBytes) +
			c.CallOverheadCycles/float64(batch)

		// Stalls: state-table misses for every NF; packet-line misses
		// for the head NF (DDIO path); partial packet re-fetch for
		// interior NFs when the chain's LLC share can't hold packets.
		stallNs := stateMiss * nf.StateLinesPerPacket * c.MissPenaltyNs
		if i == 0 {
			stallNs += packetMiss * lines * c.MissPenaltyNs
		} else {
			stallNs += stateMiss * c.InterNFRefetchLines * lines * c.MissPenaltyNs
		}

		t := cycles/freq + stallNs // ns per packet
		perNF[i] = NFResult{
			ServiceTimeNs: t,
			CapacityPPS:   share / (t * 1e-9),
			MissRate:      stateMiss,
		}
		weightedMiss += stateMiss
	}
	weightedMiss = (weightedMiss + packetMiss) / float64(len(chain.NFs)+1)

	// Chain capacity: the slowest stage bounds the pipeline.
	capacity := math.Inf(1)
	for i := range perNF {
		if perNF[i].CapacityPPS < capacity {
			capacity = perNF[i].CapacityPPS
		}
	}
	lineRate := traffic.LineRatePPS(c.LinkBps, tr.FrameBytes)
	offered := math.Min(tr.OfferedPPS, lineRate)

	// Head DMA buffer drops: M/M/1/k with burstiness-derated slots.
	buf := dma.Default().WithBytes(headDMA)
	slots := float64(buf.Slots())
	if burst > 1 {
		slots /= burst
	}
	derated := dma.Buffer{Bytes: int64(slots) * (buf.FrameBytes + buf.DescriptorBytes),
		DescriptorBytes: buf.DescriptorBytes, FrameBytes: buf.FrameBytes}
	dropProb := derated.DropProbability(offered, capacity)
	throughput := math.Min(offered*(1-dropProb), capacity)
	if throughput < 0 {
		throughput = 0
	}

	// Busy-core accounting: work time plus residual polling burn on
	// allocated-but-idle share, plus the C-state residual of
	// unallocated cores (the Baseline's DPDK tuning disables deep
	// C-states, so even unused cores draw near-C1 power).
	pollFrac := c.PollMixFraction
	if opt.BusyPoll {
		pollFrac = c.PollIdleFraction
	}
	idleResidual := c.IdleResidualSleep
	if opt.NoSleep {
		idleResidual = c.IdleResidualBusyPoll
	}
	var busySum, freqWeightedBusy float64
	for i := range perNF {
		share := clamp(knobs[i].CPUShare, 0.01, float64(c.NumCores))
		work := throughput * perNF[i].ServiceTimeNs * 1e-9 // cores busy with packets
		if work > share {
			work = share
		}
		busy := work + pollFrac*(share-work)
		perNF[i].BusyCores = busy
		busySum += busy
		freqWeightedBusy += busy * c.Power.ClampFreq(knobs[i].FreqGHz)
	}
	meanFreq := c.Power.FMin
	if busySum > 0 {
		meanFreq = freqWeightedBusy / busySum
	}

	active := busySum + c.MgmtCores
	if active > float64(c.NumCores) {
		active = float64(c.NumCores)
	}
	util := (active + idleResidual*(float64(c.NumCores)-active)) / float64(c.NumCores)
	if util > 1 {
		util = 1
	}
	pw := c.Power.Power(util, meanFreq) + c.StaticCoreWatts*active
	energy := pw * c.WindowSeconds

	gbps := traffic.ThroughputBps(throughput, tr.FrameBytes) / 1e9
	*res = Result{
		ThroughputPPS:   throughput,
		ThroughputGbps:  gbps,
		DropProb:        dropProb,
		MissRate:        weightedMiss,
		MissesPerSecond: throughput * weightedMiss * (lines + 4),
		CPUPercent:      busySum * 100,
		Utilization:     util,
		PowerWatts:      pw,
		EnergyJoules:    energy,
		Efficiency:      gbps / (energy / 1000),
		PerNF:           perNF,
	}
	if throughput > 0 {
		res.EnergyPerMPkt = energy / (throughput * c.WindowSeconds / 1e6)
	}
	return nil
}

// growNF returns buf resized to n, reallocating only when capacity is
// insufficient — steady-state EvaluateInto calls never allocate.
func growNF(buf []NFResult, n int) []NFResult {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]NFResult, n)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
