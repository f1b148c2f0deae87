package stats

import "errors"

// DES is a Double Exponential Smoothing (Holt linear trend) predictor.
//
// The EE-Pstate baseline from Iqbal & John ("Efficient Traffic Aware
// Power Management in Multicore Communications Processors") predicts
// the next-interval packet arrival rate with DES and thresholds the
// processor P-state on the prediction; GreenNFV compares against it,
// so the predictor is reproduced here exactly:
//
//	level_t = alpha*x_t + (1-alpha)*(level_{t-1} + trend_{t-1})
//	trend_t = beta*(level_t - level_{t-1}) + (1-beta)*trend_{t-1}
//	forecast(h) = level_t + h*trend_t
type DES struct {
	alpha, beta  float64
	level, trend float64
	n            int
}

// NewDES returns a DES predictor with the given level (alpha) and
// trend (beta) smoothing factors, both in (0, 1].
func NewDES(alpha, beta float64) (*DES, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("stats: DES alpha must be in (0, 1]")
	}
	if beta <= 0 || beta > 1 {
		return nil, errors.New("stats: DES beta must be in (0, 1]")
	}
	return &DES{alpha: alpha, beta: beta}, nil
}

// MustDES is NewDES that panics on invalid factors, for use with
// compile-time constants.
func MustDES(alpha, beta float64) *DES {
	d, err := NewDES(alpha, beta)
	if err != nil {
		panic(err)
	}
	return d
}

// Observe folds one observation into the smoother.
func (d *DES) Observe(x float64) {
	switch d.n {
	case 0:
		d.level = x
	case 1:
		d.trend = x - d.level
		d.level = d.alpha*x + (1-d.alpha)*(d.level+d.trend)
	default:
		prev := d.level
		d.level = d.alpha*x + (1-d.alpha)*(d.level+d.trend)
		d.trend = d.beta*(d.level-prev) + (1-d.beta)*d.trend
	}
	d.n++
}

// Forecast predicts the value h steps ahead. With fewer than two
// observations it returns the last level (no trend information yet).
func (d *DES) Forecast(h int) float64 {
	if d.n < 2 {
		return d.level
	}
	return d.level + float64(h)*d.trend
}

// Reset discards state but keeps the smoothing factors.
func (d *DES) Reset() { d.level, d.trend, d.n = 0, 0, 0 }
