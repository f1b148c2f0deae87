package perfmodel

import (
	"math"
	"testing"

	"greennfv/internal/onvm"
)

func defaultTraffic() Traffic {
	return Traffic{OfferedPPS: 2.2e6, FrameBytes: 512, Burstiness: 1}
}

// EvaluateUniform applies one knob set to every NF of the chain, the
// common case for chain-granular control.
func (c *Config) EvaluateUniform(chain ChainSpec, k NFKnobs, tr Traffic, opt EvalOptions) (Result, error) {
	knobs := make([]NFKnobs, len(chain.NFs))
	for i := range knobs {
		knobs[i] = k
	}
	return c.Evaluate(chain, knobs, tr, opt)
}

func TestDefaultConfigValidates(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.LinkBps = 0 },
		func(c *Config) { c.NumCores = 0 },
		func(c *Config) { c.MissPenaltyNs = 0 },
		func(c *Config) { c.CallOverheadCycles = -1 },
		func(c *Config) { c.WindowSeconds = 0 },
		func(c *Config) { c.PollIdleFraction = 2 },
		func(c *Config) { c.PollMixFraction = -0.5 },
	}
	for i, mut := range mutations {
		cfg := Default()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	cfg := Default()
	chain := StandardChain()
	if _, err := cfg.Evaluate(ChainSpec{}, nil, defaultTraffic(), EvalOptions{}); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := cfg.Evaluate(chain, make([]NFKnobs, 1), defaultTraffic(), EvalOptions{}); err == nil {
		t.Error("knob count mismatch accepted")
	}
	if _, err := cfg.EvaluateUniform(chain, DefaultKnobs(1)[0], Traffic{OfferedPPS: -1, FrameBytes: 64}, EvalOptions{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := cfg.EvaluateUniform(chain, DefaultKnobs(1)[0], Traffic{OfferedPPS: 1, FrameBytes: 10}, EvalOptions{}); err == nil {
		t.Error("tiny frame accepted")
	}
}

// Baseline sanity: platform defaults under the standard workload land
// near the paper's baseline operating point (~2 Gbps, ~2.5-3 kJ).
func TestBaselineOperatingPoint(t *testing.T) {
	cfg := Default()
	res, err := cfg.Evaluate(StandardChain(), DefaultKnobs(3), defaultTraffic(), EvalOptions{BusyPoll: true, NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps < 1.0 || res.ThroughputGbps > 3.5 {
		t.Errorf("baseline throughput = %.2f Gbps, want ~2", res.ThroughputGbps)
	}
	if res.EnergyJoules < 2200 || res.EnergyJoules > 3400 {
		t.Errorf("baseline energy = %.0f J, want ~2700", res.EnergyJoules)
	}
}

// Tuned headroom: the knob space must contain a configuration about
// 4x the baseline throughput at two-thirds of its energy — otherwise
// no controller can reproduce Figure 9.
func TestTunedHeadroom(t *testing.T) {
	cfg := Default()
	base, err := cfg.Evaluate(StandardChain(), DefaultKnobs(3), defaultTraffic(), EvalOptions{BusyPoll: true, NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	tuned := NFKnobs{CPUShare: 2.0, FreqGHz: 2.1, LLCFraction: 0.33, DMABytes: 2 << 20, Batch: 128}
	best, err := cfg.EvaluateUniform(StandardChain(), tuned, defaultTraffic(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := best.ThroughputGbps / base.ThroughputGbps
	if ratio < 3.5 {
		t.Errorf("tuned/baseline throughput = %.2fx, want >= 3.5x", ratio)
	}
	if best.EnergyJoules > 0.75*base.EnergyJoules {
		t.Errorf("tuned energy = %.0f J vs baseline %.0f J, want <= 75%%",
			best.EnergyJoules, base.EnergyJoules)
	}
}

// Figure 1 shape: a cache-hungry chain degrades (throughput down,
// energy/MP up, misses up) as its LLC share shrinks; a light chain
// with a small working set barely moves.
func TestFig1LLCShape(t *testing.T) {
	cfg := Default()
	heavy := HeavyChain()
	light := LightChain()
	splits := []float64{0.9, 0.7, 0.4, 0.2}
	var heavyTput, heavyEpm, heavyMiss, lightTput []float64
	for _, s := range splits {
		kH := NFKnobs{CPUShare: 4, FreqGHz: 2.1, LLCFraction: s / 3, DMABytes: 2 << 20, Batch: 64}
		rH, err := cfg.EvaluateUniform(heavy, kH, Traffic{OfferedPPS: 13e6, FrameBytes: 64, Burstiness: 1}, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		kL := NFKnobs{CPUShare: 1, FreqGHz: 2.1, LLCFraction: (1 - s) / 2, DMABytes: 2 << 20, Batch: 64}
		rL, err := cfg.EvaluateUniform(light, kL, Traffic{OfferedPPS: 1e6, FrameBytes: 64, Burstiness: 1}, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		heavyTput = append(heavyTput, rH.ThroughputGbps)
		heavyEpm = append(heavyEpm, rH.EnergyPerMPkt)
		heavyMiss = append(heavyMiss, rH.MissesPerSecond)
		lightTput = append(lightTput, rL.ThroughputGbps)
	}
	for i := 1; i < len(splits); i++ {
		if heavyTput[i] >= heavyTput[i-1] {
			t.Errorf("heavy throughput not degrading: %v", heavyTput)
			break
		}
	}
	if heavyTput[0] < 1.5*heavyTput[len(heavyTput)-1] {
		t.Errorf("heavy degradation too shallow: %v", heavyTput)
	}
	if heavyEpm[len(heavyEpm)-1] <= heavyEpm[0] {
		t.Errorf("heavy energy/MP not rising: %v", heavyEpm)
	}
	if heavyMiss[len(heavyMiss)-1] <= heavyMiss[0] {
		t.Errorf("heavy misses not rising: %v", heavyMiss)
	}
	// Light chain keeps >90% of its throughput: 1 Mpps always fits.
	for i := 1; i < len(lightTput); i++ {
		if lightTput[i] < 0.9*lightTput[0] {
			t.Errorf("light chain degraded: %v", lightTput)
			break
		}
	}
}

// Figure 2 shape: throughput and energy both increase with DVFS
// frequency; the throughput gain is sub-linear in f (time-domain miss
// stalls don't scale with frequency).
func TestFig2FrequencyShape(t *testing.T) {
	cfg := Default()
	chain := HeavyChain()
	tr := Traffic{OfferedPPS: 812743, FrameBytes: 1518, Burstiness: 1}
	var tput, energy []float64
	freqs := []float64{1.2, 1.4, 1.6, 1.8, 2.0, 2.1}
	for _, f := range freqs {
		k := NFKnobs{CPUShare: 2, FreqGHz: f, LLCFraction: 0.15, DMABytes: 2 << 20, Batch: 32}
		r, err := cfg.EvaluateUniform(chain, k, tr, EvalOptions{BusyPoll: true, NoSleep: true})
		if err != nil {
			t.Fatal(err)
		}
		tput = append(tput, r.ThroughputGbps)
		energy = append(energy, r.EnergyJoules)
	}
	for i := 1; i < len(freqs); i++ {
		if tput[i] <= tput[i-1] {
			t.Errorf("throughput not increasing with f: %v", tput)
			break
		}
		if energy[i] <= energy[i-1] {
			t.Errorf("energy not increasing with f: %v", energy)
			break
		}
	}
	// Sub-linear: speedup below the frequency ratio.
	fRatio := freqs[len(freqs)-1] / freqs[0]
	tRatio := tput[len(tput)-1] / tput[0]
	if tRatio >= fRatio {
		t.Errorf("throughput gain %.3f not sub-linear in f ratio %.3f", tRatio, fRatio)
	}
	if tRatio < 1.2 {
		t.Errorf("throughput gain %.3f too flat", tRatio)
	}
}

// Figure 3 shape: throughput rises then falls with batch size; the
// miss rate falls (call amortization dominates) then rises (batch
// working set overflows the LLC share).
func TestFig3BatchShape(t *testing.T) {
	cfg := Default()
	chain := StandardChain()
	tr := Traffic{OfferedPPS: 3e6, FrameBytes: 256, Burstiness: 1}
	batches := []int{1, 8, 32, 64, 128, 200, 256}
	var tput, missPS []float64
	for _, b := range batches {
		k := NFKnobs{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 0.06, DMABytes: 2 << 20, Batch: b}
		r, err := cfg.EvaluateUniform(chain, k, tr, EvalOptions{BusyPoll: true, NoSleep: true})
		if err != nil {
			t.Fatal(err)
		}
		tput = append(tput, r.ThroughputGbps)
		missPS = append(missPS, r.MissesPerSecond)
	}
	// Peak must be interior.
	peak := 0
	for i, v := range tput {
		if v > tput[peak] {
			peak = i
		}
	}
	if peak == 0 || peak == len(tput)-1 {
		t.Errorf("throughput peak at edge (%d): %v", peak, tput)
	}
	if tput[peak] < 1.15*tput[0] {
		t.Errorf("batching gain too small: %v", tput)
	}
	if tput[peak] < 1.02*tput[len(tput)-1] {
		t.Errorf("over-batching penalty missing: %v", tput)
	}
	// Miss rate at max batch exceeds the minimum.
	minMiss := math.Inf(1)
	for _, m := range missPS {
		if m < minMiss {
			minMiss = m
		}
	}
	if missPS[len(missPS)-1] <= minMiss {
		t.Errorf("misses not rising at large batch: %v", missPS)
	}
}

// Figure 4 shape: throughput rises (burst absorption) then falls
// (DDIO overflow) with DMA buffer size; energy/MP is U-shaped; large
// frames carry more Gbps than small ones.
func TestFig4DMAShape(t *testing.T) {
	cfg := Default()
	chain := LightChain()
	sizes := []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 28 << 20, 40 << 20}
	run := func(frame int, offered float64) (tput, epm []float64) {
		for _, d := range sizes {
			k := NFKnobs{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 0.25, DMABytes: d, Batch: 64}
			r, err := cfg.EvaluateUniform(chain, k, Traffic{OfferedPPS: offered, FrameBytes: frame, Burstiness: 128}, EvalOptions{BusyPoll: true, NoSleep: true})
			if err != nil {
				t.Fatal(err)
			}
			tput = append(tput, r.ThroughputGbps)
			epm = append(epm, r.EnergyPerMPkt)
		}
		return
	}
	small, smallE := run(64, 3.0e6)
	big, _ := run(1518, 700e3)

	checkRiseFall := func(name string, v []float64) {
		peak := 0
		for i, x := range v {
			if x > v[peak] {
				peak = i
			}
		}
		if peak == 0 || peak == len(v)-1 {
			t.Errorf("%s: peak at edge (%d): %v", name, peak, v)
			return
		}
		if v[peak] < 1.03*v[0] || v[peak] < 1.05*v[len(v)-1] {
			t.Errorf("%s: rise/fall too shallow: %v", name, v)
		}
	}
	checkRiseFall("64B", small)
	checkRiseFall("1518B", big)
	// Energy/MP: trough interior (mirror of throughput under
	// busy-poll power).
	trough := 0
	for i, x := range smallE {
		if x < smallE[trough] {
			trough = i
		}
	}
	if trough == 0 || trough == len(smallE)-1 {
		t.Errorf("energy/MP trough at edge: %v", smallE)
	}
	// Large frames out-carry small ones.
	if big[2] <= small[2] {
		t.Errorf("1518B (%v) not above 64B (%v)", big[2], small[2])
	}
}

// Power accounting: busy-poll must burn strictly more energy than the
// poll/callback mix at identical throughput, and more CPU share with
// sleeping enabled must cost little when idle.
func TestPollModeEnergyGap(t *testing.T) {
	cfg := Default()
	chain := StandardChain()
	k := NFKnobs{CPUShare: 2, FreqGHz: 2.1, LLCFraction: 0.3, DMABytes: 2 << 20, Batch: 64}
	busy, err := cfg.EvaluateUniform(chain, k, defaultTraffic(), EvalOptions{BusyPoll: true, NoSleep: true})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := cfg.EvaluateUniform(chain, k, defaultTraffic(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(busy.ThroughputGbps-mix.ThroughputGbps) > 1e-9 {
		t.Errorf("poll mode changed throughput: %v vs %v", busy.ThroughputGbps, mix.ThroughputGbps)
	}
	if mix.EnergyJoules >= 0.8*busy.EnergyJoules {
		t.Errorf("mix energy %v not well below busy-poll %v", mix.EnergyJoules, busy.EnergyJoules)
	}
}

// LLC oversubscription rescales instead of exceeding the cache.
func TestLLCOversubscriptionRescaled(t *testing.T) {
	cfg := Default()
	chain := StandardChain()
	over := []NFKnobs{
		{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 0.8, DMABytes: 2 << 20, Batch: 32},
		{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 0.8, DMABytes: 2 << 20, Batch: 32},
		{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 0.8, DMABytes: 2 << 20, Batch: 32},
	}
	exact := []NFKnobs{
		{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 1.0 / 3, DMABytes: 2 << 20, Batch: 32},
		{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 1.0 / 3, DMABytes: 2 << 20, Batch: 32},
		{CPUShare: 1, FreqGHz: 2.1, LLCFraction: 1.0 / 3, DMABytes: 2 << 20, Batch: 32},
	}
	a, err := cfg.Evaluate(chain, over, defaultTraffic(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Evaluate(chain, exact, defaultTraffic(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.ThroughputGbps-b.ThroughputGbps) > 1e-9 {
		t.Errorf("oversubscribed %v != rescaled %v", a.ThroughputGbps, b.ThroughputGbps)
	}
}

// SpecFromHandler derives an NFSpec from a live onvm handler.
func SpecFromHandler(h onvm.Handler) NFSpec {
	c := h.Cost()
	// Heavier state implies more lines touched per packet; clamp to
	// a small constant range so light NFs stay light.
	lines := 2 + math.Log2(1+float64(c.StateBytes)/4096)
	if lines > 10 {
		lines = 10
	}
	return NFSpec{
		Name:                h.Name(),
		CyclesPerPacket:     c.CyclesPerPacket,
		CyclesPerByte:       c.CyclesPerByte,
		StateBytes:          c.StateBytes,
		StateLinesPerPacket: lines,
	}
}

// ChainFromHandlers builds a ChainSpec from onvm handlers.
func ChainFromHandlers(name string, hs ...onvm.Handler) ChainSpec {
	spec := ChainSpec{Name: name}
	for _, h := range hs {
		spec.NFs = append(spec.NFs, SpecFromHandler(h))
	}
	return spec
}

func TestSpecFromHandler(t *testing.T) {
	fw := onvm.NewFirewall(nil, true)
	spec := SpecFromHandler(fw)
	if spec.Name != "firewall" || spec.CyclesPerPacket <= 0 || spec.StateLinesPerPacket < 2 {
		t.Errorf("spec = %+v", spec)
	}
	chain := ChainFromHandlers("c", fw, onvm.NewMonitor())
	if len(chain.NFs) != 2 || chain.TotalStateBytes() <= 0 {
		t.Errorf("chain = %+v", chain)
	}
}

func TestKnobBoundsClamp(t *testing.T) {
	b := DefaultBounds()
	wild := NFKnobs{CPUShare: 99, FreqGHz: 0.1, LLCFraction: -2, DMABytes: 1, Batch: 100000}
	k := b.Clamp(wild)
	if k.CPUShare != b.ShareMax || k.FreqGHz != b.FreqMin || k.LLCFraction != b.LLCMin ||
		k.DMABytes != b.DMAMin || k.Batch != b.BatchMax {
		t.Errorf("clamp = %+v", k)
	}
}

// Throughput is never negative, never exceeds offered load or line
// rate, and energy is always at least idle power x window.
func TestResultInvariants(t *testing.T) {
	cfg := Default()
	chain := StandardChain()
	for _, k := range []NFKnobs{
		{CPUShare: 0.1, FreqGHz: 1.2, LLCFraction: 0.02, DMABytes: 1 << 20, Batch: 1},
		{CPUShare: 4, FreqGHz: 2.1, LLCFraction: 1, DMABytes: 40 << 20, Batch: 256},
		{CPUShare: 1, FreqGHz: 1.7, LLCFraction: 0.5, DMABytes: 8 << 20, Batch: 64},
	} {
		for _, tr := range []Traffic{
			{OfferedPPS: 1e3, FrameBytes: 64, Burstiness: 1},
			{OfferedPPS: 20e6, FrameBytes: 64, Burstiness: 50},
			{OfferedPPS: 1e6, FrameBytes: 1518, Burstiness: 0},
		} {
			r, err := cfg.EvaluateUniform(chain, k, tr, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if r.ThroughputPPS < 0 || r.ThroughputPPS > tr.OfferedPPS+1e-9 {
				t.Errorf("throughput %v outside [0, offered %v]", r.ThroughputPPS, tr.OfferedPPS)
			}
			if r.EnergyJoules < cfg.Power.PIdle*cfg.WindowSeconds-1e-9 {
				t.Errorf("energy %v below idle floor", r.EnergyJoules)
			}
			if r.Utilization < 0 || r.Utilization > 1 {
				t.Errorf("utilization %v outside [0,1]", r.Utilization)
			}
			if r.DropProb < 0 || r.DropProb > 1 {
				t.Errorf("drop prob %v", r.DropProb)
			}
		}
	}
}
