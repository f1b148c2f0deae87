package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if h.total != 10 {
		t.Fatalf("count = %d, want 10", h.total)
	}
	if !almostEqual(h.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", h.Mean())
	}
	med := h.Quantile(0.5)
	if med < 4 || med > 6 {
		t.Errorf("median = %v, want ~5", med)
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-3)
	h.Add(15)
	h.Add(5)
	if h.total != 3 {
		t.Fatalf("count = %d, want 3", h.total)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 = %v, want 0 (underflow clamps to lo)", q)
	}
	if q := h.Quantile(1); q != 10 {
		t.Errorf("q1 = %v, want 10 (overflow clamps to hi)", q)
	}
}

func TestHistogramQuantileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram(0, 100, 1000)
	var sample []float64
	for i := 0; i < 20000; i++ {
		x := rng.Float64() * 100
		h.Add(x)
		sample = append(sample, x)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		approx := h.Quantile(q)
		exact := Percentile(sample, q*100)
		if math.Abs(approx-exact) > 0.5 { // within a few bucket widths
			t.Errorf("q%.2f: approx %v vs exact %v", q, approx, exact)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0.5)
	h.Reset()
	if h.total != 0 || h.Mean() != 0 {
		t.Error("reset did not clear histogram")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Error("quantile of empty histogram should be 0")
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{
		{0, 1, 0}, {1, 1, 4}, {2, 1, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) did not panic", c.lo, c.hi, c.n)
				}
			}()
			NewHistogram(c.lo, c.hi, c.n)
		}()
	}
}

// Percentile is the exact reference the histogram's bucketed Quantile
// is checked against: the p-th percentile (p in [0,100]) of a sample
// slice by linear interpolation between closest ranks. The input is
// not modified.
func Percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func TestPercentileExact(t *testing.T) {
	s := []float64{3, 1, 2, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be mutated.
	if s[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of empty sample should be NaN")
	}
}
