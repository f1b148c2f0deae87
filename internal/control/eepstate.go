package control

import (
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/stats"
)

// EEPstate reproduces the Iqbal & John baseline ("Efficient Traffic
// Aware Power Management in Multicore Communications Processors"):
// a Double-Exponential-Smoothing predictor forecasts the next
// interval's packet arrival rate, and threshold rules select the
// processor P-state (frequency) and park idle cores in C-states.
// Every other knob keeps the vendor defaults — the paper's point is
// that frequency-only management leaves the other four knobs on the
// table.
type EEPstate struct {
	// HighWater and LowWater are load fractions (predicted rate /
	// line rate) that select the max / min P-state; between them the
	// frequency interpolates.
	HighWater, LowWater float64
	// Defaults are the non-frequency knobs the scheme never touches.
	Defaults perfmodel.NFKnobs

	des *stats.DES
}

// NewEEPstate returns the controller with the thresholds from the
// original scheme (70% / 30%) and vendor-default knobs (moderate
// batch, stock buffers).
func NewEEPstate() *EEPstate {
	return &EEPstate{
		HighWater: 0.7,
		LowWater:  0.3,
		Defaults: perfmodel.NFKnobs{
			CPUShare:    1,
			LLCFraction: 1.0 / 3,
			DMABytes:    16 << 20,
			Batch:       16,
		},
		des: stats.MustDES(0.4, 0.3),
	}
}

// Name implements Controller.
func (p *EEPstate) Name() string { return "EE-Pstate" }

// Options implements Controller: active cores busy-poll (the scheme
// predates NF sleeping) but idle cores are parked in C-states — the
// scheme's whole point is "P and C-state" management.
func (p *EEPstate) Options() perfmodel.EvalOptions {
	return perfmodel.EvalOptions{BusyPoll: true, NoSleep: false}
}

// Prepare implements Controller (no training phase).
func (p *EEPstate) Prepare(EnvFactory) error { return nil }

// Step implements Controller: observe arrival rate, forecast with
// DES, threshold into a P-state — propose, then apply.
func (p *EEPstate) Step(e *env.Env) (perfmodel.Result, error) {
	return e.SetKnobs(p.Propose(e))
}

// Propose forecasts the next interval's load and computes the P-state
// allocation without applying it.
func (p *EEPstate) Propose(e *env.Env) []perfmodel.NFKnobs {
	bounds := e.Bounds()
	tr := e.LastTraffic()
	p.des.Observe(tr.OfferedPPS)
	predicted := p.des.Forecast(1)
	if predicted < 0 {
		predicted = 0
	}
	// Load fraction against 10 GbE line rate at the observed frame
	// size.
	line := lineRatePPS(tr.FrameBytes)
	frac := predicted / line

	var freq float64
	switch {
	case frac >= p.HighWater:
		freq = bounds.FreqMax
	case frac <= p.LowWater:
		freq = bounds.FreqMin
	default:
		span := (frac - p.LowWater) / (p.HighWater - p.LowWater)
		freq = bounds.FreqMin + span*(bounds.FreqMax-bounds.FreqMin)
	}

	ks := make([]perfmodel.NFKnobs, e.NumNFs())
	for i := range ks {
		k := p.Defaults
		k.FreqGHz = freq
		ks[i] = bounds.Clamp(k)
	}
	return ks
}

// lineRatePPS mirrors traffic.LineRatePPS for 10 GbE without
// importing the traffic package into the controller layer.
func lineRatePPS(frameBytes int) float64 {
	if frameBytes < 64 {
		frameBytes = 64
	}
	return 10e9 / (float64(frameBytes+20) * 8)
}
