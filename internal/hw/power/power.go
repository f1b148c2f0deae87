package power

import (
	"errors"
	"math"
)

// Model is the calibrated server power model. All power values are
// watts; frequencies are GHz.
type Model struct {
	// PIdle is the whole-server idle power draw (paper testbed:
	// dual-socket Xeon E5-2620 v4 server, ~100 W at the wall).
	PIdle float64
	// PMax is the whole-server draw at 100% utilization at FMax.
	PMax float64
	// H is the Fan et al. calibration parameter (paper fits it with
	// the WT210 meter; 1.4 reproduces their curve family).
	H float64
	// FMin and FMax bound the DVFS ladder (1.2 and 2.1 GHz on the
	// paper's Xeon E5-2620 v4).
	FMin, FMax float64
	// FreqExp is γ in Pmax(f) scaling.
	FreqExp float64
}

// Default returns the model calibrated to the paper's testbed class
// (dual-socket Xeon E5-2620 v4, 16 cores, 64 GB).
func Default() Model {
	return Model{
		PIdle:   100,
		PMax:    330,
		H:       1.4,
		FMin:    1.2,
		FMax:    2.1,
		FreqExp: 2.4,
	}
}

// Validate reports whether the model constants are self-consistent.
func (m Model) Validate() error {
	switch {
	case m.PIdle <= 0:
		return errors.New("power: PIdle must be positive")
	case m.PMax <= m.PIdle:
		return errors.New("power: PMax must exceed PIdle")
	case m.H <= 0:
		return errors.New("power: H must be positive")
	case m.FMin <= 0 || m.FMax <= m.FMin:
		return errors.New("power: need 0 < FMin < FMax")
	case m.FreqExp <= 0:
		return errors.New("power: FreqExp must be positive")
	}
	return nil
}

// PMaxAt reports the fully-utilized server power at frequency f,
// clamping f into [FMin, FMax].
func (m Model) PMaxAt(f float64) float64 {
	f = m.ClampFreq(f)
	ratio := f / m.FMax
	return m.PIdle + (m.PMax-m.PIdle)*powUnit(ratio, m.FreqExp)
}

// Power reports instantaneous server power at utilization u (clamped
// to [0,1]) and frequency f, per equation 4 of the paper with the
// frequency-dependent Pmax.
func (m Model) Power(u, f float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	pmax := m.PMaxAt(f)
	return (pmax-m.PIdle)*(2*u-powUnit(u, m.H)) + m.PIdle
}

// powUnit computes x**y for x in [0,1] and y > 0 as Exp(y·Log(x)),
// roughly half the cost of math.Pow, which must also handle negative
// bases, integer exponents and subnormal corner cases. Power and
// PMaxAt sit on the per-evaluation hot path of the analytic model, so
// both of their exponentiations go through here.
func powUnit(x, y float64) float64 {
	if x == 0 || x == 1 {
		return x
	}
	return math.Exp(y * math.Log(x))
}

// ClampFreq clamps f into the DVFS range.
func (m Model) ClampFreq(f float64) float64 {
	if f < m.FMin {
		return m.FMin
	}
	if f > m.FMax {
		return m.FMax
	}
	return f
}
