package sla

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	if _, err := NewMaxThroughput(0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewMinEnergy(-1); err == nil {
		t.Error("negative floor accepted")
	}
	mt, err := NewMaxThroughput(2000)
	if err != nil || mt.Kind != MaxThroughput {
		t.Errorf("MaxThroughput constructor: %v %v", mt, err)
	}
	me, err := NewMinEnergy(7.5)
	if err != nil || me.Kind != MinEnergy {
		t.Errorf("MinEnergy constructor: %v %v", me, err)
	}
	ee := NewEnergyEfficiency()
	if ee.Kind != EnergyEfficiency {
		t.Error("EE constructor")
	}
}

func TestSatisfiedAndViolation(t *testing.T) {
	mt, _ := NewMaxThroughput(2000)
	if !mt.Satisfied(5, 1999) || mt.Satisfied(5, 2001) {
		t.Error("MaxThroughput satisfaction wrong")
	}
	if v := mt.Violation(5, 2500); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("violation = %v, want 0.25", v)
	}
	if mt.Violation(5, 1000) != 0 {
		t.Error("satisfied measurement shows violation")
	}

	me, _ := NewMinEnergy(8)
	if !me.Satisfied(8.1, 99999) || me.Satisfied(7.9, 1) {
		t.Error("MinEnergy satisfaction wrong")
	}
	if v := me.Violation(6, 100); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("violation = %v, want 0.25", v)
	}

	ee := NewEnergyEfficiency()
	if !ee.Satisfied(0, 1e9) || ee.Violation(0, 1e9) != 0 {
		t.Error("EE should be unconstrained")
	}
}

func TestRewardSemantics(t *testing.T) {
	mt, _ := NewMaxThroughput(2000)
	// No reward outside the budget (paper: "issues rewards only when
	// the agent can meet the energy SLA").
	if r := mt.Reward(9, 2500); r != 0 {
		t.Errorf("over-budget reward = %v, want 0", r)
	}
	// Inside the budget, more throughput pays more.
	if mt.Reward(8, 1900) <= mt.Reward(4, 1900) {
		t.Error("MaxThroughput reward not increasing in throughput")
	}

	me, _ := NewMinEnergy(7.5)
	if r := me.Reward(7.0, 500); r != 0 {
		t.Errorf("under-floor reward = %v, want 0", r)
	}
	// Inside the floor, less energy pays more.
	if me.Reward(7.6, 1200) <= me.Reward(7.6, 2500) {
		t.Error("MinEnergy reward not decreasing in energy")
	}
	// Energy above reference clamps at zero rather than going
	// negative.
	if r := me.Reward(8, 99999); r != 0 {
		t.Errorf("clamped reward = %v", r)
	}

	ee := NewEnergyEfficiency()
	if r := ee.Reward(8, 2000); math.Abs(r-4) > 1e-12 {
		t.Errorf("EE reward = %v, want 4 Gbps/kJ", r)
	}
	if ee.Reward(8, 0) != 0 {
		t.Error("zero-energy EE reward should be 0")
	}
}

// Property: rewards are non-negative and violations are non-negative
// for any measurement.
func TestRewardViolationNonNegative(t *testing.T) {
	mt, _ := NewMaxThroughput(2000)
	me, _ := NewMinEnergy(7.5)
	ee := NewEnergyEfficiency()
	f := func(tput, energy float64) bool {
		tp := math.Abs(math.Mod(tput, 12))
		en := math.Abs(math.Mod(energy, 5000))
		if math.IsNaN(tp) || math.IsNaN(en) {
			return true
		}
		for _, s := range []SLA{mt, me, ee} {
			if s.Reward(tp, en) < 0 || s.Violation(tp, en) < 0 {
				return false
			}
			if s.Satisfied(tp, en) != (s.Violation(tp, en) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTracker(t *testing.T) {
	mt, _ := NewMaxThroughput(1000)
	tr := NewTracker(mt)
	tr.Observe(5, 900)  // ok
	tr.Observe(5, 1500) // violation 0.5
	tr.Observe(5, 1250) // violation 0.25
	if tr.steps != 3 {
		t.Errorf("steps = %d", tr.steps)
	}
	if math.Abs(tr.ViolationRate()-2.0/3) > 1e-12 {
		t.Errorf("violation rate = %v", tr.ViolationRate())
	}
	if math.Abs(tr.MeanViolation()-0.25) > 1e-12 {
		t.Errorf("mean violation = %v", tr.MeanViolation())
	}
	empty := NewTracker(mt)
	if empty.ViolationRate() != 0 || empty.MeanViolation() != 0 {
		t.Error("empty tracker non-zero")
	}
}

func TestDescribeAndString(t *testing.T) {
	mt, _ := NewMaxThroughput(2000)
	me, _ := NewMinEnergy(7.5)
	ee := NewEnergyEfficiency()
	if mt.Describe() == "" || me.Describe() == "" || ee.Describe() == "" {
		t.Error("empty description")
	}
	if MaxThroughput.String() != "max-throughput" ||
		MinEnergy.String() != "min-energy" ||
		EnergyEfficiency.String() != "energy-efficiency" {
		t.Error("kind strings")
	}
}
