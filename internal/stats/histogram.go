package stats

import "fmt"

// Histogram is a fixed-range linear-bucket histogram with overflow and
// underflow buckets. It answers approximate percentile queries in
// O(buckets) and is used for latency and batch-occupancy distributions
// in the packet simulator.
type Histogram struct {
	lo, hi float64
	width  float64
	counts []uint64
	under  uint64
	over   uint64
	total  uint64
	sum    float64
}

// NewHistogram builds a histogram covering [lo, hi) with n equal
// buckets. It panics if n <= 0 or hi <= lo (construction constants).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(n),
		counts: make([]uint64, n),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		idx := int((x - h.lo) / h.width)
		if idx >= len(h.counts) { // guard fp edge at x == hi-epsilon
			idx = len(h.counts) - 1
		}
		h.counts[idx]++
	}
}

// Mean reports the exact mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile reports an approximate q-quantile (q in [0,1]) by linear
// interpolation within the containing bucket. Underflow observations
// resolve to lo and overflow observations to hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.counts {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.hi
}

// String renders a compact summary for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.4g p50=%.4g p99=%.4g}",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.under, h.over, h.total, h.sum = 0, 0, 0, 0
}
