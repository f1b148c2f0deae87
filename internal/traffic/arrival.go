package traffic

import (
	"errors"
	"math/rand"
)

// Arrival produces packet inter-arrival times, abstracting the load
// patterns MoonGen scripts generate. Implementations are not
// goroutine-safe; give each generator goroutine its own instance.
type Arrival interface {
	// Next returns the seconds until the next packet.
	Next(rng *rand.Rand) float64
	// MeanPPS reports the long-run average packet rate.
	MeanPPS() float64
}

// CBR is constant-bit-rate arrival: perfectly paced packets, the
// pattern a hardware rate limiter or MoonGen's timestamping mode
// produces.
type CBR struct{ PPS float64 }

// NewCBR returns a CBR process at the given rate.
func NewCBR(pps float64) (*CBR, error) {
	if pps <= 0 {
		return nil, errors.New("traffic: CBR rate must be positive")
	}
	return &CBR{PPS: pps}, nil
}

// Next implements Arrival.
func (c *CBR) Next(*rand.Rand) float64 { return 1 / c.PPS }

// MeanPPS implements Arrival.
func (c *CBR) MeanPPS() float64 { return c.PPS }

// Poisson is memoryless arrival with exponential inter-arrivals, the
// standard model for aggregated independent sources.
type Poisson struct{ PPS float64 }

// NewPoisson returns a Poisson process at the given mean rate.
func NewPoisson(pps float64) (*Poisson, error) {
	if pps <= 0 {
		return nil, errors.New("traffic: Poisson rate must be positive")
	}
	return &Poisson{PPS: pps}, nil
}

// Next implements Arrival.
func (p *Poisson) Next(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / p.PPS
}

// MeanPPS implements Arrival.
func (p *Poisson) MeanPPS() float64 { return p.PPS }

// MMPP is a two-state Markov-Modulated Poisson Process: a bursty
// source alternating between a high-rate and a low-rate Poisson
// regime with exponentially distributed sojourn times. This is the
// "highly dynamic network flows" pattern §4.2 of the paper argues the
// heuristic cannot track.
type MMPP struct {
	HighPPS, LowPPS float64
	// MeanHighDur and MeanLowDur are mean sojourn seconds per state.
	MeanHighDur, MeanLowDur float64

	inHigh    bool
	stateLeft float64
}

// NewMMPP builds a two-state MMPP starting in the high state.
func NewMMPP(highPPS, lowPPS, meanHighDur, meanLowDur float64) (*MMPP, error) {
	if highPPS <= 0 || lowPPS <= 0 {
		return nil, errors.New("traffic: MMPP rates must be positive")
	}
	if meanHighDur <= 0 || meanLowDur <= 0 {
		return nil, errors.New("traffic: MMPP sojourn times must be positive")
	}
	return &MMPP{
		HighPPS: highPPS, LowPPS: lowPPS,
		MeanHighDur: meanHighDur, MeanLowDur: meanLowDur,
		inHigh: true,
	}, nil
}

// Next implements Arrival.
func (m *MMPP) Next(rng *rand.Rand) float64 {
	var total float64
	for {
		rate := m.LowPPS
		meanDur := m.MeanLowDur
		if m.inHigh {
			rate = m.HighPPS
			meanDur = m.MeanHighDur
		}
		if m.stateLeft <= 0 {
			m.stateLeft = rng.ExpFloat64() * meanDur
		}
		gap := rng.ExpFloat64() / rate
		if gap <= m.stateLeft {
			m.stateLeft -= gap
			return total + gap
		}
		// State expires before the next packet: switch and retry.
		total += m.stateLeft
		m.stateLeft = 0
		m.inHigh = !m.inHigh
	}
}

// MeanPPS implements Arrival.
func (m *MMPP) MeanPPS() float64 {
	wHigh := m.MeanHighDur / (m.MeanHighDur + m.MeanLowDur)
	return wHigh*m.HighPPS + (1-wHigh)*m.LowPPS
}

// OnOff alternates fixed-length bursts at PeakPPS with silences,
// approximating application-level batch transfers.
type OnOff struct {
	PeakPPS          float64
	OnDur, OffDur    float64
	inOn             bool
	stateLeft        float64
	startedFirstTime bool
}

// NewOnOff builds an on/off source starting with a burst.
func NewOnOff(peakPPS, onDur, offDur float64) (*OnOff, error) {
	if peakPPS <= 0 {
		return nil, errors.New("traffic: on/off peak rate must be positive")
	}
	if onDur <= 0 || offDur < 0 {
		return nil, errors.New("traffic: on/off durations invalid")
	}
	return &OnOff{PeakPPS: peakPPS, OnDur: onDur, OffDur: offDur}, nil
}

// Next implements Arrival.
func (o *OnOff) Next(*rand.Rand) float64 {
	if !o.startedFirstTime {
		o.startedFirstTime = true
		o.inOn = true
		o.stateLeft = o.OnDur
	}
	gap := 1 / o.PeakPPS
	var total float64
	for {
		if o.inOn {
			if gap <= o.stateLeft {
				o.stateLeft -= gap
				return total + gap
			}
			total += o.stateLeft
			o.inOn = false
			o.stateLeft = o.OffDur
			continue
		}
		total += o.stateLeft
		o.inOn = true
		o.stateLeft = o.OnDur
	}
}

// MeanPPS implements Arrival.
func (o *OnOff) MeanPPS() float64 {
	cycle := o.OnDur + o.OffDur
	if cycle == 0 {
		return o.PeakPPS
	}
	return o.PeakPPS * o.OnDur / cycle
}
