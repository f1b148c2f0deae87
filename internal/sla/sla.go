package sla

import (
	"errors"
	"fmt"
)

// Kind selects the SLA family.
type Kind int

// SLA kinds.
const (
	// MaxThroughput maximizes throughput under an energy budget.
	MaxThroughput Kind = iota
	// MinEnergy minimizes energy under a throughput floor.
	MinEnergy
	// EnergyEfficiency maximizes throughput per unit energy.
	EnergyEfficiency
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MaxThroughput:
		return "max-throughput"
	case MinEnergy:
		return "min-energy"
	case EnergyEfficiency:
		return "energy-efficiency"
	default:
		return fmt.Sprintf("sla(%d)", int(k))
	}
}

// SLA is one agreement instance.
type SLA struct {
	Kind Kind
	// EnergyBudgetJ is E_SLA for MaxThroughput (joules per
	// measurement window).
	EnergyBudgetJ float64
	// MinThroughputGbps is T_SLA for MinEnergy.
	MinThroughputGbps float64

	// RefEnergyJ scales MinEnergy rewards: the energy of the
	// untuned baseline, so rewards land in [0, ~1].
	RefEnergyJ float64
	// RefThroughputGbps scales MaxThroughput rewards.
	RefThroughputGbps float64

	// PenaltyWeight selects shaped rewards for the constrained SLAs:
	// when positive, a violating measurement pays
	// −PenaltyWeight×violation instead of the paper's flat zero.
	// The reward-shaping ablation compares the two.
	PenaltyWeight float64
}

// NewMaxThroughput builds the paper's Throughput-maximization SLA
// with an energy budget (the paper's experiments use 2000 J and
// 3300 J budgets).
func NewMaxThroughput(energyBudgetJ float64) (SLA, error) {
	if energyBudgetJ <= 0 {
		return SLA{}, errors.New("sla: energy budget must be positive")
	}
	return SLA{
		Kind:              MaxThroughput,
		EnergyBudgetJ:     energyBudgetJ,
		RefThroughputGbps: 10,
	}, nil
}

// NewMinEnergy builds the paper's Energy-minimization SLA with a
// throughput floor (the paper uses 7.5 Gbps and 7 Gbps floors).
func NewMinEnergy(minGbps float64) (SLA, error) {
	if minGbps <= 0 {
		return SLA{}, errors.New("sla: throughput floor must be positive")
	}
	return SLA{
		Kind:              MinEnergy,
		MinThroughputGbps: minGbps,
		RefEnergyJ:        3300,
	}, nil
}

// NewEnergyEfficiency builds the unconstrained λ = T/E SLA.
func NewEnergyEfficiency() SLA {
	return SLA{Kind: EnergyEfficiency}
}

// Satisfied reports whether the constraint holds for a measurement.
// The unconstrained efficiency SLA is always satisfied.
func (s SLA) Satisfied(tputGbps, energyJ float64) bool {
	switch s.Kind {
	case MaxThroughput:
		return energyJ <= s.EnergyBudgetJ
	case MinEnergy:
		return tputGbps >= s.MinThroughputGbps
	default:
		return true
	}
}

// Violation reports how far outside the constraint a measurement is,
// normalized to the constraint (0 when satisfied).
func (s SLA) Violation(tputGbps, energyJ float64) float64 {
	switch s.Kind {
	case MaxThroughput:
		if energyJ <= s.EnergyBudgetJ {
			return 0
		}
		return (energyJ - s.EnergyBudgetJ) / s.EnergyBudgetJ
	case MinEnergy:
		if tputGbps >= s.MinThroughputGbps {
			return 0
		}
		return (s.MinThroughputGbps - tputGbps) / s.MinThroughputGbps
	default:
		return 0
	}
}

// Reward computes the RL reward for a measurement, following §4.3.1:
// constrained SLAs pay zero outside their constraint; inside it,
// MaxThroughput pays normalized throughput, MinEnergy pays the
// normalized saving against the reference energy, and
// EnergyEfficiency always pays λ = Gbps per kilojoule.
func (s SLA) Reward(tputGbps, energyJ float64) float64 {
	switch s.Kind {
	case MaxThroughput:
		if energyJ > s.EnergyBudgetJ {
			return -s.PenaltyWeight * s.Violation(tputGbps, energyJ)
		}
		ref := s.RefThroughputGbps
		if ref <= 0 {
			ref = 10
		}
		return tputGbps / ref
	case MinEnergy:
		if tputGbps < s.MinThroughputGbps {
			return -s.PenaltyWeight * s.Violation(tputGbps, energyJ)
		}
		ref := s.RefEnergyJ
		if ref <= 0 {
			ref = 3300
		}
		saving := (ref - energyJ) / ref
		if saving < 0 {
			saving = 0
		}
		return saving
	case EnergyEfficiency:
		if energyJ <= 0 {
			return 0
		}
		return tputGbps / (energyJ / 1000)
	default:
		return 0
	}
}

// Describe renders the SLA for reports.
func (s SLA) Describe() string {
	switch s.Kind {
	case MaxThroughput:
		return fmt.Sprintf("MaxThroughput(E<=%.0fJ)", s.EnergyBudgetJ)
	case MinEnergy:
		return fmt.Sprintf("MinEnergy(T>=%.1fGbps)", s.MinThroughputGbps)
	default:
		return "EnergyEfficiency(max T/E)"
	}
}

// Tracker accumulates satisfaction statistics over a run.
type Tracker struct {
	sla        SLA
	steps      int
	violations int
	totalViol  float64
}

// NewTracker builds a tracker for one SLA.
func NewTracker(s SLA) *Tracker { return &Tracker{sla: s} }

// Observe folds in one measurement.
func (t *Tracker) Observe(tputGbps, energyJ float64) {
	t.steps++
	v := t.sla.Violation(tputGbps, energyJ)
	if v > 0 {
		t.violations++
		t.totalViol += v
	}
}

// ViolationRate reports the fraction of observations violating the
// constraint.
func (t *Tracker) ViolationRate() float64 {
	if t.steps == 0 {
		return 0
	}
	return float64(t.violations) / float64(t.steps)
}

// MeanViolation reports the mean violation magnitude across all
// observations (zero-violation steps included).
func (t *Tracker) MeanViolation() float64 {
	if t.steps == 0 {
		return 0
	}
	return t.totalViol / float64(t.steps)
}
