package stats

import (
	"math"
	"testing"
)

func TestDESRejectsBadFactors(t *testing.T) {
	if _, err := NewDES(0, 0.5); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewDES(0.5, 1.2); err == nil {
		t.Error("beta=1.2 accepted")
	}
	if _, err := NewDES(0.5, 0.5); err != nil {
		t.Errorf("valid factors rejected: %v", err)
	}
}

func TestDESTracksLinearTrendExactly(t *testing.T) {
	// A pure linear series y = 3 + 2t should be forecast exactly once
	// the trend has locked in.
	d := MustDES(0.5, 0.5)
	for i := 0; i < 100; i++ {
		d.Observe(3 + 2*float64(i))
	}
	last := 3 + 2*99.0
	for h := 1; h <= 5; h++ {
		want := last + 2*float64(h)
		if !almostEqual(d.Forecast(h), want, 1e-6) {
			t.Errorf("Forecast(%d) = %v, want %v", h, d.Forecast(h), want)
		}
	}
	if !almostEqual(d.trend, 2, 1e-6) {
		t.Errorf("trend = %v, want 2", d.trend)
	}
}

func TestDESConstantSeriesHasZeroTrend(t *testing.T) {
	d := MustDES(0.4, 0.3)
	for i := 0; i < 60; i++ {
		d.Observe(9)
	}
	if !almostEqual(d.Forecast(10), 9, 1e-9) {
		t.Errorf("Forecast = %v, want 9", d.Forecast(10))
	}
	if math.Abs(d.trend) > 1e-9 {
		t.Errorf("trend = %v, want ~0", d.trend)
	}
}

func TestDESFewSamples(t *testing.T) {
	d := MustDES(0.5, 0.5)
	if d.Forecast(1) != 0 {
		t.Errorf("empty DES forecast = %v, want 0", d.Forecast(1))
	}
	d.Observe(5)
	if d.Forecast(3) != 5 {
		t.Errorf("single-sample forecast = %v, want 5", d.Forecast(3))
	}
	if d.n != 1 {
		t.Errorf("N = %d, want 1", d.n)
	}
}

func TestDESReset(t *testing.T) {
	d := MustDES(0.5, 0.5)
	d.Observe(1)
	d.Observe(2)
	d.Reset()
	if d.n != 0 || d.level != 0 || d.trend != 0 {
		t.Error("reset did not clear state")
	}
}
