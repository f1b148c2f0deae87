package env

import (
	"math"
	"testing"
	"testing/quick"

	"greennfv/internal/perfmodel"
	"greennfv/internal/sla"
)

func testEnv(t *testing.T, s sla.SLA, busyPoll bool) *Env {
	t.Helper()
	e, err := New(Config{
		Model:      perfmodel.Default(),
		Chain:      perfmodel.StandardChain(),
		Bounds:     perfmodel.DefaultBounds(),
		SLA:        s,
		Flows:      StandardWorkload(),
		LoadJitter: 0.05,
		Options:    perfmodel.EvalOptions{BusyPoll: busyPoll, NoSleep: busyPoll},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAggregate(t *testing.T) {
	tr, err := Aggregate(StandardWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if tr.OfferedPPS != 2.2e6 {
		t.Errorf("offered = %v, want 2.2M", tr.OfferedPPS)
	}
	if tr.FrameBytes < 500 || tr.FrameBytes > 800 {
		t.Errorf("mean frame = %d, want ~630", tr.FrameBytes)
	}
	if tr.Burstiness <= 1 {
		t.Errorf("burstiness = %v, want > 1 (mixed loads)", tr.Burstiness)
	}
	if _, err := Aggregate(nil); err == nil {
		t.Error("empty flows accepted")
	}
	if _, err := Aggregate([]FlowLoad{{PPS: -1, FrameBytes: 64}}); err == nil {
		t.Error("negative flow accepted")
	}
}

func TestEnvDimensions(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	if e.NumNFs() != 3 || e.StateDim() != 12 || e.ActionDim() != 15 {
		t.Errorf("dims = %d NFs, %d state, %d action", e.NumNFs(), e.StateDim(), e.ActionDim())
	}
}

func TestEnvValidation(t *testing.T) {
	base := Config{
		Model:  perfmodel.Default(),
		Chain:  perfmodel.StandardChain(),
		Bounds: perfmodel.DefaultBounds(),
		SLA:    sla.NewEnergyEfficiency(),
		Flows:  StandardWorkload(),
	}
	bad := base
	bad.Chain = perfmodel.ChainSpec{}
	if _, err := New(bad); err == nil {
		t.Error("empty chain accepted")
	}
	bad = base
	bad.Flows = nil
	if _, err := New(bad); err == nil {
		t.Error("no flows accepted")
	}
	bad = base
	bad.LoadJitter = 1.5
	if _, err := New(bad); err == nil {
		t.Error("jitter >= 1 accepted")
	}
	bad = base
	bad.Model.NumCores = 0
	if _, err := New(bad); err == nil {
		t.Error("bad model accepted")
	}
}

// Flow sets the model would refuse must be refused at construction —
// Reset evaluates, and a model error there is a panic. (The same table
// runs through apex.ActorSpec.BuildEnv, the path a JSON payload takes.)
func TestNewRejectsHostileFlows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := FlowLoad{PPS: 1e6, FrameBytes: 512, Burstiness: 1}
	for _, c := range []struct {
		name   string
		flows  []FlowLoad
		jitter float64
	}{
		{"runt frame", []FlowLoad{{PPS: 1e6, FrameBytes: 32, Burstiness: 1}}, 0},
		{"jumbo frame", []FlowLoad{{PPS: 1e6, FrameBytes: 9000, Burstiness: 1}}, 0},
		{"one runt among good", []FlowLoad{ok, {PPS: 1, FrameBytes: 63}}, 0},
		{"zero pps", []FlowLoad{{PPS: 0, FrameBytes: 512}}, 0},
		{"NaN pps", []FlowLoad{{PPS: nan, FrameBytes: 512}}, 0},
		{"Inf pps", []FlowLoad{{PPS: inf, FrameBytes: 512}}, 0},
		{"NaN burstiness", []FlowLoad{{PPS: 1e6, FrameBytes: 512, Burstiness: nan}}, 0},
		{"Inf burstiness", []FlowLoad{{PPS: 1e6, FrameBytes: 512, Burstiness: inf}}, 0},
		{"rates overflow", []FlowLoad{{PPS: 1.5e308, FrameBytes: 64}, {PPS: 1.5e308, FrameBytes: 64}}, 0},
		{"NaN jitter", []FlowLoad{ok}, nan},
		{"jitter 1", []FlowLoad{ok}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(Config{
				Model:      perfmodel.Default(),
				Chain:      perfmodel.StandardChain(),
				Bounds:     perfmodel.DefaultBounds(),
				SLA:        sla.NewEnergyEfficiency(),
				Flows:      c.flows,
				LoadJitter: c.jitter,
			})
			if err == nil {
				t.Error("accepted")
			}
		})
	}
	// The edges of the accepted range do build and step.
	e, err := New(Config{
		Model:  perfmodel.Default(),
		Chain:  perfmodel.ChainSpec{NFs: perfmodel.StandardChain().NFs}, // unnamed, as before the merge
		Bounds: perfmodel.DefaultBounds(),
		SLA:    sla.NewEnergyEfficiency(),
		Flows:  []FlowLoad{{PPS: 1e6, FrameBytes: 64}, {PPS: 1e6, FrameBytes: 1518, Burstiness: -3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.Step(make([]float64, e.ActionDim())); err != nil {
		t.Fatal(err)
	}
}

func TestResetDeterminism(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	s1 := e.Reset(7)
	a := make([]float64, e.ActionDim()) // midpoint action
	n1, r1, _, err := e.Step(a)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e.Reset(7)
	n2, r2, _, err := e.Step(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("reset state differs at %d", i)
		}
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("step state differs at %d", i)
		}
	}
	if r1 != r2 {
		t.Fatalf("rewards differ: %v vs %v", r1, r2)
	}
}

func TestStepValidatesActionDim(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	if _, _, _, err := e.Step(make([]float64, 3)); err == nil {
		t.Error("wrong action dim accepted")
	}
}

func TestActionEncodeDecodeRoundTrip(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	f := func(raw [5]float64) bool {
		a := make([]float64, 5)
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			a[i] = math.Mod(x, 1)
		}
		k := e.DecodeAction(a)
		b := e.Bounds()
		if k.CPUShare < b.ShareMin-1e-9 || k.CPUShare > b.ShareMax+1e-9 {
			return false
		}
		if k.FreqGHz < b.FreqMin-1e-9 || k.FreqGHz > b.FreqMax+1e-9 {
			return false
		}
		if k.LLCFraction < b.LLCMin-1e-9 || k.LLCFraction > b.LLCMax+1e-9 {
			return false
		}
		if k.DMABytes < b.DMAMin || k.DMABytes > b.DMAMax {
			return false
		}
		if k.Batch < b.BatchMin || k.Batch > b.BatchMax {
			return false
		}
		// Re-encode then decode reproduces the same knobs (within
		// rounding of the integer knobs).
		enc := e.EncodeKnobs(k)
		k2 := e.DecodeAction(enc)
		return math.Abs(k2.CPUShare-k.CPUShare) < 1e-6 &&
			math.Abs(k2.FreqGHz-k.FreqGHz) < 1e-6 &&
			math.Abs(k2.LLCFraction-k.LLCFraction) < 1e-6 &&
			math.Abs(float64(k2.Batch-k.Batch)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtremeActionsMapToBounds(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	b := e.Bounds()
	lo := e.DecodeAction([]float64{-1, -1, -1, -1, -1})
	hi := e.DecodeAction([]float64{1, 1, 1, 1, 1})
	if lo.CPUShare != b.ShareMin || lo.Batch != b.BatchMin || lo.DMABytes != b.DMAMin {
		t.Errorf("lo = %+v", lo)
	}
	if hi.CPUShare != b.ShareMax || hi.Batch != b.BatchMax || math.Abs(float64(hi.DMABytes-b.DMAMax)) > 1024 {
		t.Errorf("hi = %+v", hi)
	}
}

func TestRewardMatchesSLA(t *testing.T) {
	s, _ := sla.NewMaxThroughput(2000)
	e := testEnv(t, s, false)
	a := make([]float64, e.ActionDim())
	_, r, info, err := e.Step(a)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Reward(info.ThroughputGbps, info.EnergyJoules)
	if r != want {
		t.Errorf("reward = %v, want %v", r, want)
	}
}

func TestObservationNormalized(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	obs := e.Reset(3)
	if len(obs) != e.StateDim() {
		t.Fatalf("obs len = %d", len(obs))
	}
	for i, v := range obs {
		if math.IsNaN(v) || v < 0 || v > 3 {
			t.Errorf("obs[%d] = %v outside sane range", i, v)
		}
	}
}

func TestSetKnobsDrivesEnvironment(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	ks := perfmodel.DefaultKnobs(3)
	for i := range ks {
		ks[i].Batch = 128
		ks[i].DMABytes = 2 << 20
		ks[i].CPUShare = 2
	}
	res, err := e.SetKnobs(ks)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps <= 0 {
		t.Error("zero throughput from tuned knobs")
	}
	if len(e.Knobs()) != 3 || e.Knobs()[0].Batch != 128 {
		t.Error("knobs not installed")
	}
	if _, err := e.SetKnobs(ks[:1]); err == nil {
		t.Error("knob count mismatch accepted")
	}
}

// The environment's default (baseline knobs, busy-poll) must sit in
// the paper's baseline operating region, and a tuned configuration
// must clear 4x its throughput — this is the precondition for every
// training figure.
func TestEnvHeadroomMatchesPaper(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), true)
	base := e.Last()
	if base.ThroughputGbps < 1.2 || base.ThroughputGbps > 3.2 {
		t.Errorf("baseline throughput = %v, want ~2", base.ThroughputGbps)
	}
	tuned := testEnv(t, sla.NewEnergyEfficiency(), false)
	ks := perfmodel.DefaultKnobs(3)
	for i := range ks {
		ks[i].CPUShare = 2
		ks[i].Batch = 128
		ks[i].DMABytes = 2 << 20
	}
	res, err := tuned.SetKnobs(ks)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.ThroughputGbps / base.ThroughputGbps
	if ratio < 3.5 || ratio > 6.5 {
		t.Errorf("tuned/baseline = %.2f, want ~4.4", ratio)
	}
	if res.EnergyJoules >= base.EnergyJoules {
		t.Error("tuned config not saving energy")
	}
}

func TestLoadJitterVariesTraffic(t *testing.T) {
	e := testEnv(t, sla.NewEnergyEfficiency(), false)
	a := make([]float64, e.ActionDim())
	seen := map[float64]bool{}
	for i := 0; i < 10; i++ {
		_, _, _, err := e.Step(a)
		if err != nil {
			t.Fatal(err)
		}
		seen[e.LastTraffic().OfferedPPS] = true
	}
	if len(seen) < 5 {
		t.Errorf("load jitter produced only %d distinct loads", len(seen))
	}
}

// EncodeKnobs inverts DecodeAction for warm-starting policies.
func (e *Env) EncodeKnobs(k perfmodel.NFKnobs) []float64 {
	b := e.cfg.Bounds
	k = b.Clamp(k)
	lin := func(v, lo, hi float64) float64 { return 2*(v-lo)/(hi-lo) - 1 }
	logv := func(v, lo, hi float64) float64 {
		return 2*(math.Log(v)-math.Log(lo))/(math.Log(hi)-math.Log(lo)) - 1
	}
	return []float64{
		lin(k.CPUShare, b.ShareMin, b.ShareMax),
		lin(k.FreqGHz, b.FreqMin, b.FreqMax),
		lin(k.LLCFraction, b.LLCMin, b.LLCMax),
		logv(float64(k.DMABytes), float64(b.DMAMin), float64(b.DMAMax)),
		logv(float64(k.Batch), float64(b.BatchMin), float64(b.BatchMax)),
	}
}

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
