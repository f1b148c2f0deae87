package env

import (
	"math"
	"testing"

	"greennfv/internal/perfmodel"
	"greennfv/internal/sla"
)

// randomActions fills a deterministic pseudo-random action matrix in
// [-1,1] without pulling in math/rand (keeps the streams obvious).
func randomActions(n, dim int, phase float64) []float64 {
	a := make([]float64, n*dim)
	for i := range a {
		a[i] = math.Sin(phase + float64(i)*0.731)
	}
	return a
}

// StepInto must be bit-identical to Step — it IS the scalar step,
// with the observation allocation moved to the caller.
func TestStepIntoMatchesStep(t *testing.T) {
	e1 := testEnv(t, sla.NewEnergyEfficiency(), false)
	e2 := testEnv(t, sla.NewEnergyEfficiency(), false)
	e1.Reset(11)
	e2.Reset(11)
	obs := make([]float64, e2.StateDim())
	for step := 0; step < 25; step++ {
		a := randomActions(1, e1.ActionDim(), float64(step))
		wantObs, wantR, wantInfo, err := e1.Step(a)
		if err != nil {
			t.Fatal(err)
		}
		gotR, gotInfo, err := e2.StepInto(a, obs)
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR {
			t.Fatalf("step %d: reward %v vs %v", step, gotR, wantR)
		}
		if gotInfo.ThroughputGbps != wantInfo.ThroughputGbps ||
			gotInfo.EnergyJoules != wantInfo.EnergyJoules ||
			gotInfo.PowerWatts != wantInfo.PowerWatts {
			t.Fatalf("step %d: results diverge", step)
		}
		for i := range obs {
			if obs[i] != wantObs[i] {
				t.Fatalf("step %d: obs[%d] = %v vs %v", step, i, obs[i], wantObs[i])
			}
		}
	}
}

func TestStepIntoValidatesDims(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	if _, _, err := e.StepInto(make([]float64, e.ActionDim()), make([]float64, 3)); err == nil {
		t.Error("short obs buffer accepted")
	}
	if _, _, err := e.StepInto(make([]float64, 3), make([]float64, e.StateDim())); err == nil {
		t.Error("short action accepted")
	}
}

func vecOf(t *testing.T, n int) (*VecEnv, []*Env) {
	t.Helper()
	envs := make([]*Env, n)
	for i := range envs {
		envs[i] = testEnv(t, sla.NewEnergyEfficiency(), false)
	}
	v, err := NewVecEnv(envs)
	if err != nil {
		t.Fatal(err)
	}
	return v, envs
}

// VecEnv must be bit-identical to stepping each environment serially.
func TestVecEnvMatchesSerial(t *testing.T) {
	const n, steps = 5, 10
	// Reference: serial envs stepped one by one.
	refs := make([]*Env, n)
	for i := range refs {
		refs[i] = testEnv(t, sla.NewEnergyEfficiency(), false)
		refs[i].Reset(900 + int64(i)*131)
	}
	vec, _ := vecOf(t, n)
	vec.Reset(900)
	sd, ad := vec.StateDim(), vec.ActionDim()
	for step := 0; step < steps; step++ {
		actions := randomActions(n, ad, float64(step))
		obs, rewards, infos, err := vec.Step(actions)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			wantObs, wantR, wantInfo, err := refs[i].Step(actions[i*ad : (i+1)*ad])
			if err != nil {
				t.Fatal(err)
			}
			if rewards[i] != wantR {
				t.Fatalf("step %d env %d: reward %v vs %v", step, i, rewards[i], wantR)
			}
			if infos[i].EnergyJoules != wantInfo.EnergyJoules {
				t.Fatalf("step %d env %d: energy diverges", step, i)
			}
			for j := 0; j < sd; j++ {
				if obs[i*sd+j] != wantObs[j] {
					t.Fatalf("step %d env %d: obs[%d] diverges", step, i, j)
				}
			}
		}
	}
}

func TestVecEnvValidation(t *testing.T) {
	if _, err := NewVecEnv(nil); err == nil {
		t.Error("empty VecEnv accepted")
	}
	vec, _ := vecOf(t, 2)
	if _, _, _, err := vec.Step(make([]float64, 3)); err == nil {
		t.Error("short action matrix accepted")
	}
}

// The zero-alloc contract of the environment's hot paths: the
// training step (StepInto with a caller buffer) and the serving tick's
// two environment calls (ObserveInto, then SetKnobs with the vetted
// configuration) allocate nothing in steady state.
func TestEnvStepZeroAlloc(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	a := randomActions(1, e.ActionDim(), 1)
	obs := make([]float64, e.StateDim())
	if _, _, err := e.StepInto(a, obs); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := e.StepInto(a, obs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepInto allocates %.1f objects per call, want 0", allocs)
	}
	ks := e.Knobs()
	allocs = testing.AllocsPerRun(100, func() {
		e.ObserveInto(obs)
		if _, err := e.SetKnobs(ks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ObserveInto + SetKnobs allocate %.1f objects per tick, want 0", allocs)
	}
}

func BenchmarkEnvStep(b *testing.B) {
	e, err := New(Config{
		Model:      perfmodel.Default(),
		Chain:      perfmodel.StandardChain(),
		Bounds:     perfmodel.DefaultBounds(),
		SLA:        sla.NewEnergyEfficiency(),
		Flows:      StandardWorkload(),
		LoadJitter: 0.05,
		Seed:       42,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := randomActions(1, e.ActionDim(), 1)
	obs := make([]float64, e.StateDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.StepInto(a, obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVecEnvStep8(b *testing.B) {
	envs := make([]*Env, 8)
	for i := range envs {
		e, err := New(Config{
			Model:      perfmodel.Default(),
			Chain:      perfmodel.StandardChain(),
			Bounds:     perfmodel.DefaultBounds(),
			SLA:        sla.NewEnergyEfficiency(),
			Flows:      StandardWorkload(),
			LoadJitter: 0.05,
			Seed:       42 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		envs[i] = e
	}
	vec, err := NewVecEnv(envs)
	if err != nil {
		b.Fatal(err)
	}
	actions := randomActions(8, vec.ActionDim(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := vec.Step(actions); err != nil {
			b.Fatal(err)
		}
	}
}
