package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	cases := []func(*Model){
		func(m *Model) { m.PIdle = 0 },
		func(m *Model) { m.PMax = m.PIdle },
		func(m *Model) { m.H = 0 },
		func(m *Model) { m.FMin = 0 },
		func(m *Model) { m.FMax = m.FMin },
		func(m *Model) { m.FreqExp = -1 },
	}
	for i, mutate := range cases {
		m := Default()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model passed validation", i)
		}
	}
}

func TestPowerEndpoints(t *testing.T) {
	m := Default()
	// At u=0 power is idle regardless of frequency.
	if got := m.Power(0, m.FMax); !almostEqual(got, m.PIdle, 1e-9) {
		t.Errorf("P(0) = %v, want %v", got, m.PIdle)
	}
	// At u=1, f=fmax: 2·1 − 1^h = 1, so power is PMax.
	if got := m.Power(1, m.FMax); !almostEqual(got, m.PMax, 1e-9) {
		t.Errorf("P(1,fmax) = %v, want %v", got, m.PMax)
	}
	// Utilization clamps.
	if got := m.Power(1.7, m.FMax); !almostEqual(got, m.PMax, 1e-9) {
		t.Errorf("P(1.7) = %v, want clamp to %v", got, m.PMax)
	}
	if got := m.Power(-0.3, m.FMax); !almostEqual(got, m.PIdle, 1e-9) {
		t.Errorf("P(-0.3) = %v, want clamp to %v", got, m.PIdle)
	}
}

// Property: power is monotone non-decreasing in utilization and in
// frequency, and always within [PIdle, PMax].
func TestPowerMonotoneAndBounded(t *testing.T) {
	m := Default()
	f := func(rawU1, rawU2, rawF1, rawF2 float64) bool {
		u1 := math.Abs(math.Mod(rawU1, 1))
		u2 := math.Abs(math.Mod(rawU2, 1))
		f1 := m.FMin + math.Abs(math.Mod(rawF1, m.FMax-m.FMin))
		f2 := m.FMin + math.Abs(math.Mod(rawF2, m.FMax-m.FMin))
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		pLow := m.Power(u1, f1)
		pHighU := m.Power(u2, f1)
		pHighF := m.Power(u1, f2)
		inRange := pLow >= m.PIdle-1e-9 && pLow <= m.PMax+1e-9
		return inRange && pHighU >= pLow-1e-9 && pHighF >= pLow-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPMaxAtScalesWithFrequency(t *testing.T) {
	m := Default()
	low := m.PMaxAt(m.FMin)
	high := m.PMaxAt(m.FMax)
	if low >= high {
		t.Errorf("PMaxAt not increasing: %v >= %v", low, high)
	}
	if !almostEqual(high, m.PMax, 1e-9) {
		t.Errorf("PMaxAt(fmax) = %v, want %v", high, m.PMax)
	}
	// Clamping outside the ladder.
	if m.PMaxAt(0.5) != low || m.PMaxAt(9) != high {
		t.Error("PMaxAt does not clamp to the DVFS range")
	}
}

// The Fan model is concave-above-linear: P(u) should exceed the linear
// interpolation between idle and max for interior u (that's the whole
// point of the 2u − u^h shape with h > 1).
func TestPowerNonLinearShape(t *testing.T) {
	m := Default()
	for _, u := range []float64{0.2, 0.4, 0.6, 0.8} {
		linear := m.PIdle + (m.PMax-m.PIdle)*u
		if got := m.Power(u, m.FMax); got <= linear {
			t.Errorf("P(%v) = %v not above linear %v", u, got, linear)
		}
	}
}

func almostEqual(a, b, eps float64) bool {
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	return diff <= eps*math.Max(math.Abs(a), math.Abs(b))
}
