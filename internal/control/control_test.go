package control

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

func factory(t *testing.T) EnvFactory {
	t.Helper()
	return func(seed int64, opts perfmodel.EvalOptions) (*env.Env, error) {
		return env.New(env.Config{
			Model:      perfmodel.Default(),
			Chain:      perfmodel.StandardChain(),
			Bounds:     perfmodel.DefaultBounds(),
			SLA:        sla.NewEnergyEfficiency(),
			Flows:      env.StandardWorkload(),
			LoadJitter: 0.03,
			Options:    opts,
			Seed:       seed,
		})
	}
}

func TestBaselineStatic(t *testing.T) {
	c := NewBaseline()
	if err := c.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	tput, energy, last, err := Run(c, factory(t), 1, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tput < 1.2 || tput > 3.2 {
		t.Errorf("baseline throughput = %v, want ~2", tput)
	}
	if energy < 2200 || energy > 3400 {
		t.Errorf("baseline energy = %v, want ~2700", energy)
	}
	if last.ThroughputGbps <= 0 {
		t.Error("no final measurement")
	}
	if !c.Options().BusyPoll || !c.Options().NoSleep {
		t.Error("baseline must busy-poll without sleeping")
	}
}

func TestHeuristicImprovesOverBaseline(t *testing.T) {
	b := NewBaseline()
	bt, be, _, err := Run(b, factory(t), 1, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeuristic()
	// The heuristic converges slowly (unit batch steps): give it the
	// paper's long horizon.
	ht, he, _, err := Run(h, factory(t), 1, 400, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ht < 1.5*bt {
		t.Errorf("heuristic %.2f Gbps not ~2x baseline %.2f", ht, bt)
	}
	if ht > 3.5*bt {
		t.Errorf("heuristic %.2f Gbps too strong vs baseline %.2f", ht, bt)
	}
	_ = he
	_ = be
}

func TestEEPstateTracksLoad(t *testing.T) {
	p := NewEEPstate()
	if err := p.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	tput, energy, _, err := Run(p, factory(t), 2, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 || energy <= 0 {
		t.Fatalf("EE-Pstate result %v Gbps %v J", tput, energy)
	}
	// C-state management must beat the baseline's energy at the same
	// or better throughput.
	b := NewBaseline()
	bt, be, _, err := Run(b, factory(t), 2, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if energy >= be {
		t.Errorf("EE-Pstate energy %v not below baseline %v", energy, be)
	}
	if tput < bt {
		t.Errorf("EE-Pstate throughput %v below baseline %v", tput, bt)
	}
}

func TestQLearningPreparesAndControls(t *testing.T) {
	q := NewQLearning(sla.NewEnergyEfficiency(), 3000)
	if _, err := q.Step(nil); err == nil {
		t.Error("unprepared step accepted")
	}
	if err := q.Prepare(factory(t)); err != nil {
		t.Fatal(err)
	}
	tput, _, _, err := Run(q, factory(t), 3, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBaseline()
	bt, _, _, err := Run(b, factory(t), 3, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tput < bt {
		t.Errorf("Q-learning %.2f below baseline %.2f", tput, bt)
	}
}

func TestGreenNFVPreparesAndControls(t *testing.T) {
	g := NewGreenNFV(sla.NewEnergyEfficiency(), 600, 2, 11)
	if _, err := g.Step(nil); err == nil {
		t.Error("unprepared step accepted")
	}
	if err := g.Prepare(factory(t)); err != nil {
		t.Fatal(err)
	}
	if len(g.Curve()) == 0 {
		t.Error("training left no snapshots")
	}
	tput, energy, _, err := Run(g, factory(t), 4, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 || energy <= 0 {
		t.Fatalf("GreenNFV result %v/%v", tput, energy)
	}
	if g.Options().BusyPoll || g.Options().NoSleep {
		t.Error("GreenNFV must run the poll/callback + sleep platform")
	}
}

// liveHeap is the heap a double GC leaves: the second collects what
// the first only moved to sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestTrainedGreenNFVKeepsOnlyWhatItServes: a controller trained
// through TrainOn saves, deploys and plots exactly what the learner of
// the same run, trained directly, does — the actor frame, the serving
// checkpoint, the curve and 20 greedy intervals, bit for bit — while
// its replay is empty and it retains little more heap than a policy
// loaded from its own checkpoint.
func TestTrainedGreenNFVKeepsOnlyWhatItServes(t *testing.T) {
	const steps, actors, seed = 300, 2, 5
	s := sla.NewEnergyEfficiency()
	before := liveHeap()
	g := NewGreenNFV(s, steps, actors, seed)
	if err := g.Prepare(factory(t)); err != nil {
		t.Fatal(err)
	}
	trained := int64(liveHeap() - before)
	runtime.KeepAlive(g)

	cfg := NewGreenNFV(s, steps, actors, seed).Train
	cfg.StepperFactory = func(actorID int) (env.Stepper, error) {
		return factory(t)(seed+int64(actorID)*131, perfmodel.EvalOptions{})
	}
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = seed
	trainer, err := apex.NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := trainer.Run(); err != nil {
		t.Fatal(err)
	}
	direct := trainer.Learner().Agent()

	var actor, state bytes.Buffer
	if err := g.SaveActor(&actor); err != nil {
		t.Fatal(err)
	}
	if err := g.SavePolicyState(&state); err != nil {
		t.Fatal(err)
	}
	wantActor, _ := direct.ActorBytes()
	var wantState bytes.Buffer
	if err := direct.SaveState(&wantState, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(actor.Bytes(), wantActor) || !bytes.Equal(state.Bytes(), wantState.Bytes()) {
		t.Error("the trained controller saves another policy than its learner")
	}
	if len(g.Curve()) == 0 || !reflect.DeepEqual(g.Curve(), trainer.Snapshots) {
		t.Errorf("curve of %d points, the trainer recorded %d", len(g.Curve()), len(trainer.Snapshots))
	}
	ref := NewGreenNFVFromAgent(s, direct)
	ref.Seed = seed
	e1, err := factory(t)(seed, g.Options())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := factory(t)(seed, g.Options())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err1 := g.StepOn(e1)
		want, err2 := ref.StepOn(e2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a, b := fmt.Sprintf("%v", got), fmt.Sprintf("%v", want); a != b {
			t.Fatalf("interval %d: %s, learner %s", i, a, b)
		}
	}
	if n := g.agent.BufferLen(); n != 0 {
		t.Errorf("the trained controller's replay holds %d transitions", n)
	}

	// A policy loaded from the checkpoint holds networks, optimizer
	// moments and noise, and no replay or batch scratch; after one
	// interval, one-row forward caches. The trained controller adds the
	// actor's minibatch-sized forward caches and the curve.
	before = liveHeap()
	agent, err := ddpg.LoadAgentBytes(state.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewGreenNFVFromAgent(s, agent)
	if _, err := loaded.StepOn(e1); err != nil {
		t.Fatal(err)
	}
	minimal := int64(liveHeap() - before)
	runtime.KeepAlive(loaded)
	runtime.KeepAlive(&state)
	t.Logf("the trained controller retains %d KB, a loaded policy %d KB", trained>>10, minimal>>10)
	if trained > minimal+160<<10 {
		t.Errorf("the trained controller retains %d KB, over the %d KB of a loaded policy plus 160 KB", trained>>10, minimal>>10)
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, _, err := Run(NewBaseline(), factory(t), 1, 0, 0); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := Deploy(NewBaseline(), factory(t), 1, 0); err == nil {
		t.Error("Deploy accepted zero steps")
	}
}

// Run is the settled mean of Deploy's series plus its last interval,
// and a settle window outside the series averages all of it.
func TestRunIsSettledDeploy(t *testing.T) {
	series, err := Deploy(NewBaseline(), factory(t), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("Deploy returned %d intervals, want 8", len(series))
	}
	for _, settle := range []int{3, 0, 9} {
		tput, energy, last, err := Run(NewBaseline(), factory(t), 5, 8, settle)
		if err != nil {
			t.Fatal(err)
		}
		wantT, wantE := Settled(series, settle)
		if tput != wantT || energy != wantE || last.ThroughputGbps != series[7].ThroughputGbps {
			t.Errorf("settle %d: Run = (%v, %v, %v), Deploy gives (%v, %v, %v)",
				settle, tput, energy, last.ThroughputGbps, wantT, wantE, series[7].ThroughputGbps)
		}
	}
	whole, _ := Settled(series, 0)
	var sum float64
	for _, r := range series {
		sum += r.ThroughputGbps
	}
	if whole != sum/8 {
		t.Errorf("Settled(series, 0) = %v, want the mean of all %v", whole, sum/8)
	}
}

// A deployed GreenNFV allocates nothing per interval once it has
// stepped an environment.
func TestGreenNFVStepOnAllocs(t *testing.T) {
	e, err := factory(t)(1, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := ddpg.New(ddpg.DefaultConfig(e.StateDim(), e.ActionDim()))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGreenNFVFromAgent(sla.NewEnergyEfficiency(), agent)
	if _, err := g.StepOn(e); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.StepOn(e); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("StepOn allocates %v per interval, want 0", allocs)
	}
}

func TestControllerNames(t *testing.T) {
	mt, _ := sla.NewMaxThroughput(2000)
	me, _ := sla.NewMinEnergy(7.5)
	names := map[Controller]string{
		NewBaseline():            "Baseline",
		NewHeuristic():           "Heuristics",
		NewEEPstate():            "EE-Pstate",
		NewQLearning(me, 1):      "Q-Learning",
		NewGreenNFV(mt, 1, 1, 1): "GreenNFV(MaxT)",
		NewGreenNFV(me, 1, 1, 1): "GreenNFV(MinE)",
		NewGreenNFV(sla.NewEnergyEfficiency(), 1, 1, 1): "GreenNFV(EE)",
	}
	for c, want := range names {
		if c.Name() != want {
			t.Errorf("name = %q, want %q", c.Name(), want)
		}
	}
}
