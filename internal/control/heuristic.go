package control

import (
	"math"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
)

// Heuristic is the paper's baseline heuristic (Algorithm 1): start
// from fixed allocations (one core per NF, median frequency, batch 2,
// LLC proportional to flow rate, DMA sized from LLC/batch), then
// periodically nudge core frequency and batch size against two
// energy-efficiency thresholds. The paper notes this "does not use
// any prior knowledge", converges slowly, and still roughly doubles
// the baseline — which is the behaviour reproduced here.
type Heuristic struct {
	// Threshold1 gates the frequency step (λ below it steps the
	// frequency down, per Algorithm 1 lines 9–12).
	Threshold1 float64
	// Threshold2 gates the batch step (lines 13–16).
	Threshold2 float64

	initialized bool
	knobs       []perfmodel.NFKnobs
}

// NewHeuristic returns the controller with the thresholds used in the
// comparison experiments (λ is Gbps per kJ).
func NewHeuristic() *Heuristic {
	return &Heuristic{Threshold1: 1.2, Threshold2: 2.0}
}

// Name implements Controller.
func (h *Heuristic) Name() string { return "Heuristics" }

// Options implements Controller: the heuristic manages knobs but not
// NF sleeping, so it runs on the stock busy-poll platform.
func (h *Heuristic) Options() perfmodel.EvalOptions {
	return perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
}

// Prepare implements Controller (no training phase).
func (h *Heuristic) Prepare(EnvFactory) error { return nil }

// Step implements Controller: Algorithm 1 — propose, then apply.
func (h *Heuristic) Step(e *env.Env) (perfmodel.Result, error) {
	return e.SetKnobs(h.Propose(e))
}

// Propose computes the next allocation from the env's last
// observation without applying it. The returned slice is owned by the
// controller and valid until the next Propose.
func (h *Heuristic) Propose(e *env.Env) []perfmodel.NFKnobs {
	bounds := e.Bounds()
	if !h.initialized {
		// Lines 1–6: fixed initial allocation.
		n := e.NumNFs()
		h.knobs = make([]perfmodel.NFKnobs, n)
		tr := e.LastTraffic()
		median := (bounds.FreqMin + bounds.FreqMax) / 2
		for i := range h.knobs {
			batch := 2
			llc := 1.0 / float64(n) // proportional to (equal) flow rates
			dma := int64(llc*float64(18<<20)) / int64(tr.FrameBytes) * int64(batch)
			h.knobs[i] = bounds.Clamp(perfmodel.NFKnobs{
				CPUShare:    1,
				FreqGHz:     median,
				LLCFraction: llc,
				DMABytes:    dma,
				Batch:       batch,
			})
		}
		h.initialized = true
		return h.knobs
	}

	// Line 7–8: periodically check throughput and energy, compute λ.
	last := e.Last()
	lambda := last.Efficiency // Gbps per kJ

	for i := range h.knobs {
		// Lines 9–12: frequency step toward the nearest available
		// ladder value.
		if lambda < h.Threshold1 {
			h.knobs[i].FreqGHz = stepFreq(h.knobs[i].FreqGHz, -1, bounds)
		} else {
			h.knobs[i].FreqGHz = stepFreq(h.knobs[i].FreqGHz, +1, bounds)
		}
		// Lines 13–16: unit batch step.
		if lambda < h.Threshold2 {
			h.knobs[i].Batch++
		} else {
			h.knobs[i].Batch--
		}
		h.knobs[i] = bounds.Clamp(h.knobs[i])
	}
	return h.knobs
}

// stepFreq moves one 100 MHz ladder step within bounds.
func stepFreq(f float64, dir int, b perfmodel.KnobBounds) float64 {
	f = math.Round(f*10)/10 + 0.1*float64(dir)
	if f < b.FreqMin {
		return b.FreqMin
	}
	if f > b.FreqMax {
		return b.FreqMax
	}
	return f
}
