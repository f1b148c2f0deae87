package stats

// Welford accumulates mean and variance in a single pass using
// Welford's numerically stable online algorithm.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean reports the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// PopVariance reports the population variance (n denominator).
func (w *Welford) PopVariance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// IndexOfDispersion measures burstiness of a series of per-interval
// event counts: variance/mean. A Poisson process has IoD ≈ 1; bursty
// (MMPP-like) traffic has IoD > 1; CBR traffic has IoD ≈ 0.
func IndexOfDispersion(counts []float64) float64 {
	var w Welford
	for _, c := range counts {
		w.Add(c)
	}
	m := w.Mean()
	if m == 0 {
		return 0
	}
	return w.PopVariance() / m
}
