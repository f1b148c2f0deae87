package apex

import (
	"bytes"
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

// TestPublishRecyclesReleasedFrame: a parameter version costs no
// allocation once every pull of the last one has been released — the
// learner re-encodes into that frame — and exactly one frame-sized
// buffer while a pull still holds it, whose bytes stay as they were. An
// update that publishes no version costs none.
func TestPublishRecyclesReleasedFrame(t *testing.T) {
	learner := fedLearner(t)
	learner.LearnStep(1) // warm the update's scratch
	_, first, _ := learner.PullParams(0)
	learner.ReleaseParams(first)
	if n := testing.AllocsPerRun(50, func() {
		learner.LearnStep(1)
		_, frame, _ := learner.PullParams(0)
		learner.ReleaseParams(frame)
	}); n != 0 {
		t.Errorf("an update that publishes a released frame's successor makes %v allocations, want 0", n)
	}
	version, frame, _ := learner.PullParams(0)
	if version < 50 {
		t.Fatalf("version %d after 50 publishing updates", version)
	}
	if &frame[0] != &first[0] || len(frame) != len(first) {
		t.Error("a version published after every pull was released is not in the first frame's buffer")
	}
	learner.ReleaseParams(frame)

	const held = 20
	var before, after runtime.MemStats
	want, fresh := make([]byte, 0, len(frame)), []byte(nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
	// No cycle left running from the setup into the window.
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < held; i++ {
		_, frame, _ := learner.PullParams(0)
		want = append(want[:0], frame...)
		learner.LearnStep(1)
		if !bytes.Equal(frame, want) {
			t.Fatal("a held frame was rewritten by the next version")
		}
		learner.ReleaseParams(frame) // stale now: not counted
		_, fresh, _ = learner.PullParams(0)
		learner.ReleaseParams(fresh)
		if &fresh[0] == &frame[0] || len(fresh) != len(frame) {
			t.Fatal("the version after a held frame is not a new frame of its size")
		}
	}
	runtime.ReadMemStats(&after)
	// Each is one frame, rounded up to the allocator's size class.
	n, per := after.Mallocs-before.Mallocs, int(after.TotalAlloc-before.TotalAlloc)/held
	if n != held || per < len(fresh) || per > len(fresh)+len(fresh)/8 || cap(fresh) != len(fresh) {
		t.Errorf("%d publishes over a held frame make %d allocations of %d B each, into %d-byte buffers; want %d of one %d-byte frame (GC cycles %d to %d over the window)",
			held, n, per, cap(fresh), held, len(fresh), before.NumGC, after.NumGC)
	}
	if n := testing.AllocsPerRun(50, func() { learner.LearnStep(1 << 30) }); n != 0 {
		t.Errorf("an update that publishes nothing makes %v allocations, want 0", n)
	}
}

// TestSyncParamsReleasesItsPull: an actor hands back every frame it
// pulls, so round-robin training — an update, then an actor syncing —
// publishes every version into the same frame.
func TestSyncParamsReleasesItsPull(t *testing.T) {
	tr := smallTrainer(t, 64)
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	learner, actor := tr.Learner(), tr.Actors()[0]
	_, first, _ := learner.PullParams(0)
	learner.ReleaseParams(first)
	if n := testing.AllocsPerRun(20, func() {
		learner.LearnStep(1)
		if err := actor.SyncParams(learner); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("an update and an actor's sync of its version make %v allocations, want 0", n)
	}
	if _, frame, _ := learner.PullParams(0); &frame[0] != &first[0] {
		t.Error("a version published after an actor's sync is not in the frame it synced")
	}
}

// TestReleaseCountsOnlyTheCurrentFrame: a release of a frame the
// learner has since replaced, or a second release of one pull, never
// lets the learner rewrite a frame another puller still holds.
func TestReleaseCountsOnlyTheCurrentFrame(t *testing.T) {
	learner := fedLearner(t)
	_, stale, _ := learner.PullParams(0) // puller A holds version 1
	staleWant := string(stale)
	learner.LearnStep(1) // version 2, into a new buffer
	_, held, _ := learner.PullParams(0)
	want := string(held) // puller B holds version 2
	learner.ReleaseParams(stale)
	learner.ReleaseParams(nil)
	learner.ReleaseParams([]byte("not a frame"))
	learner.LearnStep(1)
	if string(held) != want || string(stale) != staleWant {
		t.Fatal("a stale release let the learner rewrite a held frame")
	}
	learner.ReleaseParams(held)

	_, once, _ := learner.PullParams(0) // A pulls version 3 ...
	learner.ReleaseParams(once)
	learner.ReleaseParams(once) // ... and releases it twice
	_, held, _ = learner.PullParams(0)
	want = string(held) // B holds version 3
	learner.LearnStep(1)
	if string(held) != want {
		t.Fatal("a second release let the learner rewrite a held frame")
	}
	if _, next, _ := learner.PullParams(0); &next[0] == &held[0] {
		t.Fatal("version 4 was encoded into the frame B holds")
	}
}

// TestConcurrentPullersSeeTheirVersion: pullers that pull, copy and
// release while the learner publishes — so most versions are
// re-encoded in place — each copy exactly the frame published as the
// version they were told.
func TestConcurrentPullersSeeTheirVersion(t *testing.T) {
	learner := fedLearner(t)
	const updates = 300
	recorded := make(map[int]string, updates+1)
	record := func() {
		version, frame, _ := learner.PullParams(0)
		recorded[version] = string(frame)
		learner.ReleaseParams(frame)
	}
	record()
	type pulled struct {
		version int
		frame   string
	}
	stop := make(chan struct{})
	seen := make([][]pulled, 2)
	var wg sync.WaitGroup
	for p := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			have := 0
			var buf []byte
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
				buf = append(buf[:0], frame...)
				learner.ReleaseParams(frame)
				seen[p] = append(seen[p], pulled{version, string(buf)})
				have = version
			}
		}()
	}
	for i := 0; i < updates; i++ {
		learner.LearnStep(1)
		record()
	}
	close(stop)
	wg.Wait()
	if len(recorded) != updates+1 {
		t.Fatalf("%d versions recorded over %d publishing updates", len(recorded), updates)
	}
	for p, pulls := range seen {
		for _, got := range pulls {
			if got.frame != recorded[got.version] {
				t.Fatalf("puller %d: its copy of version %d is not the frame published as it", p, got.version)
			}
		}
		t.Logf("puller %d copied %d versions", p, len(pulls))
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
// the learner mutex (the RPC handler encodes it, an in-process actor
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
	// The learner's agent (~142 KB), four actors' inference views
	// (~140 KB each) and their environments: 742 KB measured, and the
	// bound leaves ~15 %.
	if got := built.TotalAlloc - before.TotalAlloc; got > 856<<10 {
		t.Errorf("NewTrainer allocates %d KB, want under 856 KB", got>>10)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ran)
	// The one replay that stores something grows its ring and sum tree
	// to the few hundred slots it holds (1,172 KB measured; 2,170 KB
	// while the tree took its full 1 MB at the first add).
	if got := ran.TotalAlloc - built.TotalAlloc; got > 1536<<10 {
		t.Errorf("a 400-step run allocates %d KB, want under 1.5 MB", got>>10)
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
