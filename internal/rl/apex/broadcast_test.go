package apex

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"greennfv/internal/nn"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// fedLearner is rpcLearner with enough experience pushed for every
// LearnStep to complete an update.
func fedLearner(t *testing.T) *Learner {
	t.Helper()
	learner := rpcLearner(t)
	if err := learner.PushExperience(rpcBatch(32)); err != nil {
		t.Fatal(err)
	}
	return learner
}

// TestPublishAllocatesOneFrame: a parameter version costs one
// allocation — the frame, exactly its size — on top of an update that
// allocates nothing, and an update that publishes no version costs
// none.
func TestPublishAllocatesOneFrame(t *testing.T) {
	learner := fedLearner(t)
	learner.LearnStep(1) // warm the update's scratch
	_, before, _ := learner.PullParams(0)
	if n := testing.AllocsPerRun(50, func() { learner.LearnStep(1) }); n != 1 {
		t.Errorf("an update that publishes a version makes %v allocations, want 1", n)
	}
	version, frame, _ := learner.PullParams(0)
	if version < 50 {
		t.Fatalf("version %d after 50 publishing updates", version)
	}
	if len(frame) != len(before) || cap(frame) != len(frame) {
		t.Errorf("published frame is %d bytes in a %d-byte buffer, the first was %d", len(frame), cap(frame), len(before))
	}
	if n := testing.AllocsPerRun(50, func() { learner.LearnStep(1 << 30) }); n != 0 {
		t.Errorf("an update that publishes nothing makes %v allocations, want 0", n)
	}
}

// TestSyncParamsAllocatesNothing: an in-process pull is a frame copied
// into the live actor when the learner has a newer version, and a
// version compare when it has not.
func TestSyncParamsAllocatesNothing(t *testing.T) {
	tr := smallTrainer(t, 64)
	learner, actor := tr.Learner(), tr.Actors()[0]
	if err := actor.SyncParams(learner); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := actor.SyncParams(learner); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a pull with no fresh version makes %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		actor.version = 0 // every pull finds the learner's version newer
		if err := actor.SyncParams(learner); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a pull of a fresh version makes %v allocations, want 0", n)
	}
}

// TestPublishedFrameIsImmutable: pullers read a published frame outside
// the learner mutex (the RPC handler encodes it, the Parallel driver
// loads it) while the learner goes on publishing, so publish must never
// reuse or rewrite a buffer it has handed out. Under -race a write into
// a published frame is a reported race; without it, the frame's bytes
// are compared before and after.
func TestPublishedFrameIsImmutable(t *testing.T) {
	learner := fedLearner(t)
	const updates = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agent, err := ddpg.New(learner.Agent().Config())
			if err != nil {
				t.Error(err)
				return
			}
			have := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				version, frame, err := learner.PullParams(have)
				if err != nil {
					t.Error(err)
					return
				}
				if frame == nil {
					runtime.Gosched()
					continue
				}
				held := append([]byte(nil), frame...)
				if err := agent.LoadActorBytes(frame); err != nil {
					t.Errorf("version %d: %v", version, err)
					return
				}
				runtime.Gosched() // let the learner publish on
				if string(held) != string(frame) {
					t.Errorf("version %d was rewritten after it was published", version)
					return
				}
				have = version
			}
		}()
	}
	for i := 0; i < updates; i++ {
		learner.LearnStep(1)
	}
	close(stop)
	wg.Wait()
}

// TestNewTrainerFootprint: replay capacity is a bound, not a
// reservation. The learner and the four actors of the default
// configuration each used to zero a 65 536-slot replay and its sum tree
// at construction — 34 MB, four fifths of it never touched — and after
// a run the storage held tracks what was stored. Actors hold inference
// views, with no replay, optimizer or gradient buffer at all.
func TestNewTrainerFootprint(t *testing.T) {
	cfg := DefaultTrainerConfig(400)
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	var before, built, ran runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	// The learner's agent (~212 KB), four actors' inference views
	// (~150 KB each) and their environments: 853 KB measured.
	if got := built.TotalAlloc - before.TotalAlloc; got > 920<<10 {
		t.Errorf("NewTrainer allocates %d KB, want under 920 KB", got>>10)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ran)
	// The one replay that stores something allocates its 1 MB sum tree
	// (full size from the first add) and a few hundred slots.
	if got := ran.TotalAlloc - built.TotalAlloc; got > 4<<20 {
		t.Errorf("a 400-step run allocates %d KB, want under 4 MB", got>>10)
	}
	t.Logf("NewTrainer %d KB, 400 steps %d KB", (built.TotalAlloc-before.TotalAlloc)>>10, (ran.TotalAlloc-built.TotalAlloc)>>10)
	// An actor holds no training state at all: no agent, optimizer or
	// replay buffer is reachable from its fields. The learner's is, which
	// shows the walk looks.
	if path := reachesTraining(reflect.TypeOf(Actor{}), map[reflect.Type]bool{}); path != "" {
		t.Errorf("an actor holds training state: %s", path)
	}
	if reachesTraining(reflect.TypeOf(Learner{}), map[reflect.Type]bool{}) == "" {
		t.Error("the type walk found no training state in the learner")
	}
}

// trainingTypes are what only a learner needs.
var trainingTypes = map[reflect.Type]bool{
	reflect.TypeOf((*ddpg.Agent)(nil)).Elem():         true,
	reflect.TypeOf((*nn.Adam)(nil)).Elem():            true,
	reflect.TypeOf((*replay.Prioritized)(nil)).Elem(): true,
	reflect.TypeOf((*replay.Uniform)(nil)).Elem():     true,
}

// reachesTraining walks the static field types reachable from t and
// returns the path to the first training type, or "" when there is
// none. Interface-typed fields are not followed.
func reachesTraining(t reflect.Type, seen map[reflect.Type]bool) string {
	if trainingTypes[t] {
		return t.String()
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
		return reachesTraining(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := reachesTraining(t.Field(i).Type, seen); p != "" {
				return t.Name() + "." + t.Field(i).Name + " → " + p
			}
		}
	}
	return ""
}
