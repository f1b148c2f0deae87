package serve

import (
	"math"

	"greennfv/internal/perfmodel"
)

// Limiter applies hysteresis and rate limiting to a stream of knob
// proposals for one node, so a noisy policy cannot thrash hardware
// states: per-interval knob deltas are capped against the node's
// last applied configuration, and changes inside a relative deadband
// hold the previous value instead of twitching the hardware. The
// limits are fixed: per interval a node moves at most 2 cores,
// 0.3 GHz and 25% of the LLC, swings its DMA ring and batch by at
// most 4x either way, and a knob whose relative change is at most 5%
// holds its previous value.
//
// Limit computes the limited proposal; Record advances the baseline
// to the configuration actually applied — kept separate so a
// guardrail-rejected proposal never becomes the next baseline. The
// first Limit after construction or Reset passes through unmodified
// (there is nothing to rate against).
//
// Not goroutine-safe; one Limiter per node, owned by its serving loop.
type Limiter struct {
	prev []perfmodel.NFKnobs // last Recorded config (nil: no baseline)
	out  []perfmodel.NFKnobs // Limit scratch
}

// The limits documented on Limiter: absolute caps for the continuous
// knobs (cores, GHz, LLC fraction), multiplicative caps for the
// log-scaled ones, and the relative deadband.
const (
	maxShareStep   = 2
	maxFreqStep    = 0.3
	maxLLCStep     = 0.25
	maxDMAFactor   = 4
	maxBatchFactor = 4
	deadband       = 0.05
)

// DefaultLimiter returns a Limiter with no baseline, enforcing the
// limits documented on Limiter.
func DefaultLimiter() *Limiter { return &Limiter{} }

// Reset forgets the baseline (the next Limit passes through). Used
// when a node re-registers after an outage.
func (l *Limiter) Reset() { l.prev = nil }

// Record sets the baseline to the configuration actually applied.
func (l *Limiter) Record(applied []perfmodel.NFKnobs) {
	if len(l.prev) != len(applied) {
		l.prev = make([]perfmodel.NFKnobs, len(applied))
	}
	copy(l.prev, applied)
}

// Limit rate-limits proposed against the recorded baseline without
// advancing it. The returned slice is limiter scratch, valid until
// the next Limit.
func (l *Limiter) Limit(proposed []perfmodel.NFKnobs) []perfmodel.NFKnobs {
	if len(l.out) != len(proposed) {
		l.out = make([]perfmodel.NFKnobs, len(proposed))
	}
	if len(l.prev) != len(proposed) {
		copy(l.out, proposed)
		return l.out
	}
	for i, p := range proposed {
		prev := l.prev[i]
		p.CPUShare = limitLinear(p.CPUShare, prev.CPUShare, maxShareStep)
		p.FreqGHz = limitLinear(p.FreqGHz, prev.FreqGHz, maxFreqStep)
		p.LLCFraction = limitLinear(p.LLCFraction, prev.LLCFraction, maxLLCStep)
		p.DMABytes = int64(limitFactor(float64(p.DMABytes), float64(prev.DMABytes), maxDMAFactor))
		p.Batch = int(math.Round(limitFactor(float64(p.Batch), float64(prev.Batch), maxBatchFactor)))
		l.out[i] = p
	}
	return l.out
}

// limitLinear caps |v - prev| at step and applies the deadband.
func limitLinear(v, prev, step float64) float64 {
	switch {
	case hold(v, prev):
		return prev
	case v > prev+step:
		return prev + step
	case v < prev-step:
		return prev - step
	}
	return v
}

// limitFactor caps v/prev at factor (and prev/v likewise) and applies
// the deadband.
func limitFactor(v, prev, factor float64) float64 {
	switch {
	case hold(v, prev):
		return prev
	case prev <= 0:
		return v
	case v > prev*factor:
		return prev * factor
	case v < prev/factor:
		return prev / factor
	}
	return v
}

// hold reports whether the relative change from prev to v is inside
// the deadband.
func hold(v, prev float64) bool {
	return prev != 0 && math.Abs(v-prev) <= deadband*math.Abs(prev)
}
