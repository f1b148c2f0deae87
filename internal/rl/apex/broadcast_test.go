package apex

import (
	"runtime"
	"sync"
	"testing"

	"greennfv/internal/rl/ddpg"
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
// a run the storage held tracks what was stored.
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
	if got := built.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("NewTrainer allocates %d KB, want under 2 MB", got>>10)
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
	for _, a := range tr.Actors() {
		if n := a.agent.BufferLen(); n != 0 {
			t.Errorf("actor %d's own replay holds %d transitions", a.ID, n)
		}
	}
}
