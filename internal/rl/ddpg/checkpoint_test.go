package ddpg

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"time"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// fillReplay observes n random transitions so Learn has experience to
// sample; the transitions are independent of the agent's own RNG so
// the agent stream position is exercised only by Act/Learn.
func fillReplay(a *Agent, cfg Config, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s := make([]float64, cfg.StateDim)
		ns := make([]float64, cfg.StateDim)
		act := make([]float64, cfg.ActionDim)
		for j := range s {
			s[j] = rng.NormFloat64()
			ns[j] = rng.NormFloat64()
		}
		for j := range act {
			act[j] = 2*rng.Float64() - 1
		}
		a.Observe(replay.Transition{State: s, Action: act, Reward: rng.NormFloat64(), NextState: ns})
	}
}

// runCheckpointRoundTrip drives an agent whose replay is striped over
// shards locks through warmup learning, checkpoints it mid-run,
// restores into a fresh agent (one shard) and asserts the two futures
// are bit-identical: same replay stripes and ActorBytes immediately
// after restore and after every further update, same losses, same
// exploration actions (noise + RNG stream parity).
func runCheckpointRoundTrip(t *testing.T, f32 bool, shards int) {
	t.Helper()
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256

	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := replay.NewSharded(cfg.BufferCap, shards, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.SetReplay(buf); err != nil {
		t.Fatal(err)
	}
	orig.SetFloat32(f32)
	fillReplay(orig, cfg, 64, 71)
	state := make([]float64, cfg.StateDim)
	for i := 0; i < 9; i++ {
		act(t, orig, state, true)
		if loss := orig.Learn(); math.IsNaN(loss) {
			t.Fatalf("NaN loss at warmup step %d", i)
		}
	}

	blob, err := orig.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	wantActor, err := orig.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetFloat32(f32)
	if err := restored.LoadStateBytes(blob); err != nil {
		t.Fatal(err)
	}
	gotActor, err := restored.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantActor, gotActor) {
		t.Fatal("restored ActorBytes differs from checkpoint")
	}
	if restored.LearnSteps() != orig.LearnSteps() {
		t.Fatalf("learn steps: restored %d, want %d", restored.LearnSteps(), orig.LearnSteps())
	}
	if restored.BufferLen() != orig.BufferLen() || restored.Replay().NumShards() != shards {
		t.Fatalf("replay: restored %d transitions in %d shards, want %d in %d",
			restored.BufferLen(), restored.Replay().NumShards(), orig.BufferLen(), shards)
	}

	// Both agents now walk the same future: exploration actions and
	// updates must track bit-for-bit.
	for i := 0; i < 6; i++ {
		aOrig, aRest := act(t, orig, state, true), act(t, restored, state, true)
		for j := range aOrig {
			if aOrig[j] != aRest[j] {
				t.Fatalf("step %d: explore action diverged: %v vs %v", i, aOrig, aRest)
			}
		}
		lOrig, lRest := orig.Learn(), restored.Learn()
		if lOrig != lRest {
			t.Fatalf("step %d: loss diverged: %v vs %v", i, lOrig, lRest)
		}
		wo, _ := orig.ActorBytes()
		wr, _ := restored.ActorBytes()
		if !bytes.Equal(wo, wr) {
			t.Fatalf("step %d: actor weights diverged after update", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T)    { runCheckpointRoundTrip(t, false, 1) }
func TestCheckpointRoundTripF32(t *testing.T) { runCheckpointRoundTrip(t, true, 1) }

// TestCheckpointRestoresStripeCount: a replay snapshot restores at its
// own stripe count — the fresh agent's one-shard buffer is replaced by
// a four-shard one — and the restored agent samples, acts and learns
// exactly as the one that saved it.
func TestCheckpointRestoresStripeCount(t *testing.T) { runCheckpointRoundTrip(t, false, 4) }

// TestCheckpointConfigMismatch pins that a checkpoint cannot be
// restored into an agent built from a different Config.
func TestCheckpointConfigMismatch(t *testing.T) {
	a, err := New(DefaultConfig(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := a.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(DefaultConfig(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadStateBytes(blob); err == nil {
		t.Fatal("restore into mismatched config succeeded, want error")
	}
}

// TestCheckpointRejectsDirtyReplay pins that a replay-bearing
// checkpoint refuses to restore over a buffer that already holds
// experience (silently merging would corrupt the sampling tree).
func TestCheckpointRejectsDirtyReplay(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(a, cfg, 8, 3)
	blob, err := a.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(dirty, cfg, 1, 4)
	if err := dirty.LoadStateBytes(blob); err == nil {
		t.Fatal("restore over non-empty replay succeeded, want error")
	}
}

// TestLoadAgentFromCheckpointAlone pins the whole-agent reader of a
// serving checkpoint: LoadAgent reconstructs an agent from the file
// alone (the embedded Config builds it), skips a replay snapshot
// instead of requiring a matching buffer, and deploys the same policy
// — greedy actions identical to the saved agent's.
func TestLoadAgentFromCheckpointAlone(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(orig, cfg, 64, 71)
	state := make([]float64, cfg.StateDim)
	for i := 0; i < 5; i++ {
		act(t, orig, state, true)
		orig.Learn()
	}
	// Replay included on purpose (SaveServing never writes it): LoadAgent
	// must skip it, not demand a buffer that fits it.
	training, err := orig.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	blob := servingWith(t, orig, training)

	served, err := LoadAgentBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if served.LearnSteps() != orig.LearnSteps() {
		t.Errorf("learn steps: served %d, want %d", served.LearnSteps(), orig.LearnSteps())
	}
	if served.BufferLen() != 0 {
		t.Errorf("served agent restored %d replay transitions, want 0", served.BufferLen())
	}
	for trial := 0; trial < 3; trial++ {
		for j := range state {
			state[j] = 0.01 * float64(trial*10+j)
		}
		want, got := greedy(t, orig, state), greedy(t, served, state)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("trial %d: greedy action diverged: %v vs %v", trial, got, want)
			}
		}
	}

	if _, err := LoadAgentBytes(blob[:len(blob)/2]); err == nil {
		t.Error("LoadAgent accepted a truncated checkpoint")
	}
}

// reencode decodes a StateBytes blob, applies edit and encodes it
// again: a well-formed checkpoint with hostile contents.
func reencode(t *testing.T, blob []byte, edit func(*agentState)) []byte {
	t.Helper()
	var st agentState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	edit(&st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadStateRejectsHostileOptimizer: the optimizer moments in a
// checkpoint come from disk and the next update indexes them by the
// networks' shapes (the f32 learner hands the assembly a bare pointer).
// Ill-shaped moments of either precision, in either optimizer, must be
// an error from LoadStateBytes — not a panic or an out-of-bounds write
// at the next update — and leave the agent able to learn.
func TestLoadStateRejectsHostileOptimizer(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(src, cfg, 64, 71)
	src.Learn()
	src.SetFloat32(true)
	src.Learn()
	src.SetFloat32(false)
	blob, err := src.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}

	hostile := map[string]func(*nn.AdamState){
		"f32 one scalar": func(o *nn.AdamState) { o.T32, o.M32, o.V32 = 3, [][]float32{{1}}, [][]float32{{1}} },
		"f32 short":      func(o *nn.AdamState) { o.M32[0], o.V32[0] = o.M32[0][:1], o.V32[0][:1] },
		"f32 long":       func(o *nn.AdamState) { o.M32[0], o.V32[0] = append(o.M32[0], 0), append(o.V32[0], 0) },
		"f32 ragged":     func(o *nn.AdamState) { o.V32[1] = o.V32[1][:1] },
		"f32 count":      func(o *nn.AdamState) { o.M32, o.V32 = o.M32[:1], o.V32[:1] },
		"f32 m-only":     func(o *nn.AdamState) { o.V32 = nil },
		"f32 negative t": func(o *nn.AdamState) { o.T32 = -1 },
		"f64 short":      func(o *nn.AdamState) { o.M[0], o.V[0] = o.M[0][:1], o.V[0][:1] },
		"f64 ragged":     func(o *nn.AdamState) { o.V[1] = o.V[1][:1] },
		"f64 negative t": func(o *nn.AdamState) { o.T = -1 },
	}
	for _, f32 := range []bool{false, true} {
		for name, edit := range hostile {
			for which, pick := range map[string]func(*agentState) *nn.AdamState{
				"actor":  func(st *agentState) *nn.AdamState { return &st.ActorOpt },
				"critic": func(st *agentState) *nn.AdamState { return &st.CriticOpt },
			} {
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fillReplay(a, cfg, 64, 71)
				a.SetFloat32(f32)
				bad := reencode(t, blob, func(st *agentState) { edit(pick(st)) })
				if err := a.LoadStateBytes(bad); err == nil {
					t.Errorf("f32=%v %s optimizer, %s: LoadStateBytes accepted it", f32, which, name)
				}
				if loss := a.Learn(); math.IsNaN(loss) {
					t.Errorf("f32=%v %s optimizer, %s: NaN loss after the rejected load", f32, which, name)
				}
			}
		}
	}
}

// TestLoadAgentSkipsRNGFastForward: loading for serving must not replay
// the trainer's RNG stream — the draw count is read from the blob, the
// fast-forward is one generator step per draw, and greedy inference
// never draws. A checkpoint claiming 2^62 draws loads promptly and
// serves the same policy.
func TestLoadAgentSkipsRNGFastForward(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(orig, cfg, 64, 71)
	for i := 0; i < 5; i++ {
		orig.Learn()
	}
	blob, err := orig.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadAgentBytes(servingWith(t, orig, blob))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := LoadAgentBytes(servingWith(t, orig, reencode(t, blob, func(st *agentState) { st.RNGDraws = 1 << 62 })))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("LoadAgentBytes took %v on a blob claiming 2^62 RNG draws", d)
	}
	state := make([]float64, cfg.StateDim)
	for trial := 0; trial < 3; trial++ {
		for j := range state {
			state[j] = 0.01 * float64(trial*10+j)
		}
		w, g := greedy(t, want, state), greedy(t, got, state)
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("trial %d: greedy action diverged: %v vs %v", trial, g, w)
			}
		}
	}
}
