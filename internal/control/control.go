package control

import (
	"errors"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
)

// EnvFactory builds a fresh environment for a controller: seed varies
// per training actor, opts select the controller's platform variant.
type EnvFactory func(seed int64, opts perfmodel.EvalOptions) (*env.Env, error)

// Controller is one resource-management policy under comparison.
type Controller interface {
	// Name identifies the controller in reports.
	Name() string
	// Options reports the platform variant the controller runs on
	// (busy-poll vs poll/callback mix, C-state policy).
	Options() perfmodel.EvalOptions
	// Prepare trains or initializes the controller. Controllers
	// without a training phase return nil immediately.
	Prepare(factory EnvFactory) error
	// Step runs one control interval on the environment: observe,
	// decide, apply knobs, and return the resulting measurement.
	Step(e *env.Env) (perfmodel.Result, error)
}

// Deploy drives a prepared controller for `steps` intervals on a fresh
// environment, factory(seed, c.Options()), and returns every interval's
// measurement in order. An entry's PerNF may alias environment scratch
// that later intervals overwrite.
func Deploy(c Controller, factory EnvFactory, seed int64, steps int) ([]perfmodel.Result, error) {
	if steps <= 0 {
		return nil, errors.New("control: steps must be positive")
	}
	e, err := factory(seed, c.Options())
	if err != nil {
		return nil, err
	}
	series := make([]perfmodel.Result, steps)
	for i := range series {
		if series[i], err = c.Step(e); err != nil {
			return nil, err
		}
	}
	return series, nil
}

// Settled returns the mean throughput (Gbps) and energy (J) of the last
// `settle` measurements of a deployment; settle <= 0 or beyond the
// series means all of it.
func Settled(series []perfmodel.Result, settle int) (avgTput, avgEnergy float64) {
	if settle <= 0 || settle > len(series) {
		settle = len(series)
	}
	for _, r := range series[len(series)-settle:] {
		avgTput += r.ThroughputGbps
		avgEnergy += r.EnergyJoules
	}
	return avgTput / float64(settle), avgEnergy / float64(settle)
}

// Run deploys a prepared controller for `steps` intervals (Deploy) and
// returns the mean of the last `settle` measurements (Settled) plus the
// final measurement.
func Run(c Controller, factory EnvFactory, seed int64, steps, settle int) (avgTput, avgEnergy float64, last perfmodel.Result, err error) {
	series, err := Deploy(c, factory, seed, steps)
	if err != nil {
		return 0, 0, perfmodel.Result{}, err
	}
	avgTput, avgEnergy = Settled(series, settle)
	return avgTput, avgEnergy, series[steps-1], nil
}

// Baseline is the untuned platform: performance governor (max
// frequency), stock defaults for every other knob, DPDK busy-poll
// with C-states disabled. It never adapts.
type Baseline struct {
	knobs []perfmodel.NFKnobs // cached defaults (SetKnobs copies them)
}

// NewBaseline returns the Baseline controller.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements Controller.
func (b *Baseline) Name() string { return "Baseline" }

// Options implements Controller: full busy-poll, no sleeping.
func (b *Baseline) Options() perfmodel.EvalOptions {
	return perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
}

// Prepare implements Controller (no training).
func (b *Baseline) Prepare(EnvFactory) error { return nil }

// Step implements Controller: reapply platform defaults.
func (b *Baseline) Step(e *env.Env) (perfmodel.Result, error) {
	if len(b.knobs) != e.NumNFs() {
		b.knobs = perfmodel.DefaultKnobs(e.NumNFs())
	}
	return e.SetKnobs(b.knobs)
}
