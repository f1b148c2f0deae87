package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.PopVariance() != 0 {
		t.Fatalf("zero-value Welford should report zeros, got n=%d mean=%v var=%v", w.n, w.Mean(), w.PopVariance())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 {
		t.Errorf("mean = %v, want 42", w.Mean())
	}
	if w.PopVariance() != 0 {
		t.Errorf("variance of single sample = %v, want 0", w.PopVariance())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.PopVariance(), 4, 1e-12) {
		t.Errorf("population variance = %v, want 4", w.PopVariance())
	}
}

// Property: Welford matches the two-pass textbook computation.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs))
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.PopVariance(), wantVar, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIndexOfDispersion(t *testing.T) {
	// CBR: identical counts, IoD = 0.
	cbr := []float64{10, 10, 10, 10, 10}
	if iod := IndexOfDispersion(cbr); iod != 0 {
		t.Errorf("CBR IoD = %v, want 0", iod)
	}
	// Poisson(λ=50): IoD ≈ 1.
	rng := rand.New(rand.NewSource(11))
	poisson := make([]float64, 5000)
	for i := range poisson {
		// Knuth's algorithm for small λ.
		l := math.Exp(-50)
		k, p := 0, 1.0
		for p > l {
			k++
			p *= rng.Float64()
		}
		poisson[i] = float64(k - 1)
	}
	if iod := IndexOfDispersion(poisson); iod < 0.8 || iod > 1.2 {
		t.Errorf("Poisson IoD = %v, want ~1", iod)
	}
	// Bursty: alternating silence and bursts, IoD >> 1.
	bursty := make([]float64, 100)
	for i := range bursty {
		if i%10 == 0 {
			bursty[i] = 500
		}
	}
	if iod := IndexOfDispersion(bursty); iod <= 10 {
		t.Errorf("bursty IoD = %v, want >> 1", iod)
	}
	if IndexOfDispersion(nil) != 0 {
		t.Error("empty IoD should be 0")
	}
}
