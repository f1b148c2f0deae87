package ddpg

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// LoadStateBytes is ReadCheckpoint then LoadState, the resume path in
// one call.
func (a *Agent) LoadStateBytes(data []byte) error {
	c, err := ReadCheckpoint(data)
	if err != nil {
		return err
	}
	return a.LoadState(c)
}

// edited is a copy of a checkpoint with edit applied and its sum
// rewritten to match: a well-framed checkpoint with hostile contents.
func edited(blob []byte, edit func([]byte) []byte) []byte {
	return sealSection(edit(bytes.Clone(blob)))
}

// put64 sets the 8 bytes at off.
func put64(off int, v uint64) func([]byte) []byte {
	return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }
}

// put32 sets the 4 bytes at off; setByte the one.
func put32(off int, v uint32) func([]byte) []byte {
	return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
}

func setByte(off int, v byte) func([]byte) []byte {
	return func(b []byte) []byte { b[off] = v; return b }
}

// cut removes n bytes at off; grow inserts n zero bytes there.
func cut(off, n int) func([]byte) []byte {
	return func(b []byte) []byte { return append(b[:off], b[off+n:]...) }
}

func grow(off, n int) func([]byte) []byte {
	return func(b []byte) []byte { return append(b[:off], append(make([]byte, n), b[off:]...)...) }
}

// regions are the offsets at which each part of a checkpoint's layout
// starts (doc.go, "Checkpoint"), found through ReadCheckpoint: every
// field it returns is a slice of the checkpoint itself.
func regions(t testing.TB, blob []byte) map[string]int {
	t.Helper()
	c, err := ReadCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	at := func(b []byte) int { return cap(blob) - cap(b) }
	noise := at(c.criticOpt) + len(c.criticOpt)
	sigma := noise + 8*c.cfg.ActionDim
	r := map[string]int{
		"config":              sectionHeaderLen,
		"config seed":         at(c.frame) - 8,
		"actor frame":         at(c.frame),
		"state magic":         at(c.frame) + len(c.frame),
		"critic frame":        at(c.critic),
		"actor target frame":  at(c.actorTarget),
		"critic target frame": at(c.criticTarget),
		"actor optimizer":     at(c.actorOpt),
		"critic optimizer":    at(c.criticOpt),
		"noise":               noise,
		"sigma":               sigma,
		"RNG draws":           sigma + 8,
		"LearnSteps":          sigma + 16,
		"replay flag":         sigma + 24,
	}
	if c.replay != nil {
		rows := at(c.replay) + 20 + 24*c.stripes
		r["replay header"] = at(c.replay)
		r["leaf"] = rows
		r["replay row"] = rows + 8
		r["done byte"] = rows + 8*(2+2*c.cfg.StateDim+c.cfg.ActionDim)
	}
	return r
}

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
// checkpoint: LoadAgent reconstructs an agent from the file alone (the
// embedded Config builds it), skips a replay snapshot instead of
// requiring a matching buffer, and deploys the same policy — greedy
// actions identical to the saved agent's.
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
	// Replay included on purpose (the serving checkpoint never carries
	// it): LoadAgent must skip it, not demand a buffer that fits it.
	blob, err := orig.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}

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

// hostileAgent is an agent of cfg after updates at both precisions, so
// both optimizers carry f64 and f32 moments, and its checkpoint.
func hostileAgent(t testing.TB, cfg Config, includeReplay bool) (*Agent, []byte) {
	t.Helper()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(src, cfg, 64, 71)
	src.Learn()
	src.SetFloat32(true)
	src.Learn()
	src.SetFloat32(false)
	blob, err := src.StateBytes(includeReplay)
	if err != nil {
		t.Fatal(err)
	}
	return src, blob
}

// TestLoadStateRejectsHostileOptimizer: the optimizer moments in a
// checkpoint come from disk and the next update indexes them by the
// networks' shapes (the f32 learner hands the assembly a bare pointer).
// Hostile moments of either precision, in either optimizer, well framed
// under a rewritten sum, must be an error from LoadStateBytes — not a
// panic or an out-of-bounds write at the next update — and leave the
// agent able to learn. The layout carries no per-slice lengths: what
// were ragged moments, or one slice's moments cut short, are now a
// record of the wrong length, which the exact-length check refuses
// ("short", "long", "one scalar", "count").
func TestLoadStateRejectsHostileOptimizer(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256
	_, blob := hostileAgent(t, cfg, false)
	r := regions(t, blob)
	actorParams, _ := nn.MLPParams(actorSizes(cfg))
	criticParams, _ := nn.MLPParams(criticSizes(cfg))

	for _, opt := range []struct {
		name  string
		at, p int // the record's offset and its network's parameter count
	}{{"actor", r["actor optimizer"], actorParams}, {"critic", r["critic optimizer"], criticParams}} {
		f32 := opt.at + 8 + 16*opt.p // the f32 record's count
		hostile := map[string]func([]byte) []byte{
			"f64 negative t": put64(opt.at, 1<<63),
			"f64 count":      put64(opt.at, 0),
			"f64 short":      cut(opt.at+8, 8),
			"f64 long":       grow(opt.at+8, 8),
			"f64 NaN m":      put64(opt.at+8, math.Float64bits(math.NaN())),
			"f64 negative v": put64(opt.at+8+8*opt.p, math.Float64bits(-1)),
			"f32 negative t": put64(f32, 1<<63),
			"f32 count":      put64(f32, 0),
			"f32 one scalar": func(b []byte) []byte {
				tail := bytes.Clone(b[f32+8+8*opt.p:])
				return append(append(b[:f32+8], 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f), tail...) // m = v = 1
			},
			"f32 short":      cut(f32+8, 4),
			"f32 long":       grow(f32+8, 4),
			"f32 infinite v": put32(f32+8+4*opt.p, math.Float32bits(float32(math.Inf(1)))),
		}
		for _, learnF32 := range []bool{false, true} {
			for name, edit := range hostile {
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fillReplay(a, cfg, 64, 71)
				a.SetFloat32(learnF32)
				if err := a.LoadStateBytes(edited(blob, edit)); err == nil {
					t.Errorf("f32=%v %s optimizer, %s: LoadStateBytes accepted it", learnF32, opt.name, name)
				}
				if loss := a.Learn(); math.IsNaN(loss) {
					t.Errorf("f32=%v %s optimizer, %s: NaN loss after the rejected load", learnF32, opt.name, name)
				}
			}
		}
	}
}

// TestRefusedLoadStateChangesNothing: a checkpoint is checked whole
// before the first write. Each corruption, one region at a time and
// under a rewritten sum — the section, each network's frame, each
// optimizer, the noise, the counters, the replay header, a replay row
// and a leaf — is refused by LoadStateBytes, and the agent's whole
// state, replay included, is byte-identical before and after. (Before
// the one-pass reader the networks were written before the optimizer
// moments were checked: the critic-moment case changed the agent.)
func TestRefusedLoadStateChangesNothing(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256
	_, blob := hostileAgent(t, cfg, true)
	r := regions(t, blob)
	nan := math.Float64bits(math.NaN())
	for name, edit := range map[string]func([]byte) []byte{
		"section: another seed":                 put64(r["config seed"], 99),
		"actor frame: another width":            put64(r["actor frame"]+12, 7),
		"training state: another magic":         put64(r["state magic"], 0),
		"critic frame: another width":           put64(r["critic frame"]+12, 7),
		"actor target frame: another width":     put64(r["actor target frame"]+12, 7),
		"critic target frame: another width":    put64(r["critic target frame"]+12, 7),
		"actor optimizer: negative step count":  put64(r["actor optimizer"], 1<<63),
		"critic optimizer: one moment short":    cut(r["critic optimizer"]+8, 8),
		"noise: NaN":                            put64(r["noise"], nan),
		"sigma: infinite":                       put64(r["sigma"], math.Float64bits(math.Inf(1))),
		"counters: negative LearnSteps":         put64(r["LearnSteps"], 1<<63),
		"replay flag: 2":                        setByte(r["replay flag"], 2),
		"replay header: zero stripes":           put32(r["replay header"], 0),
		"replay header: cursor behind the fill": put64(r["replay header"]+20+8, 0),
		"replay row: one short":                 cut(r["replay row"], 1),
		"replay row: done byte 2":               setByte(r["done byte"], 2),
		"leaf: NaN":                             put64(r["leaf"], nan),
	} {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before, err := a.StateBytes(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.LoadStateBytes(edited(blob, edit)); err == nil {
			t.Errorf("%s: LoadStateBytes accepted it", name)
			continue
		}
		if after, _ := a.StateBytes(true); !bytes.Equal(before, after) {
			t.Errorf("%s: the refused checkpoint changed the agent", name)
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LoadStateBytes(blob); err != nil {
		t.Fatalf("the unedited checkpoint was refused: %v", err)
	}
}

// TestLoadAgentSkipsRNGFastForward: loading for serving must not replay
// the trainer's RNG stream — the draw count is read from the file, the
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
	want, err := LoadAgentBytes(blob)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := LoadAgentBytes(edited(blob, put64(regions(t, blob)["RNG draws"], 1<<62)))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("LoadAgentBytes took %v on a checkpoint claiming 2^62 RNG draws", d)
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

// plausible reports whether every parameter of the agent's four
// networks is at most 1e6 in magnitude (NaN is not).
func plausible(a *Agent) bool {
	for _, n := range []*nn.Network{a.Actor, a.Critic, a.actorTarget, a.criticTarget} {
		for _, p := range n.ParamSlices() {
			for _, v := range p {
				if !(math.Abs(v) <= 1e6) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzLoadState: a sound policy section followed by an arbitrary
// training state, the sum rewritten to match. The reader never panics,
// and an accepted checkpoint gives an agent that acts greedily with
// finite actions, whose own checkpoint carries back every field the
// reader restored, bit for bit, and whose next Learn (on a replay the
// harness fills) neither panics nor — when its networks hold plausible
// parameters — returns a non-finite loss. A frame carries any bits
// (NaN among them) and finite weights past 1e6 can overflow an update
// by arithmetic alone, which no check of the bytes could exclude. It
// reads through LoadAgentBytes: the resume path also fast-forwards the
// RNG by a count the bytes claim, one generator step per draw (ROADMAP
// item 7). Seeds (f.Add): the training states of a trained agent with
// and without its replay and of a fresh agent, and the first of them
// under another state magic.
func FuzzLoadState(f *testing.F) {
	cfg := frameConfig()
	cfg.BufferCap = 256
	a, withReplay := hostileAgent(f, cfg, true)
	file, err := a.StateBytes(false)
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := fresh.StateBytes(false)
	if err != nil {
		f.Fatal(err)
	}
	sectionEnd := regions(f, file)["state magic"]
	for _, b := range [][]byte{file, withReplay, empty} {
		f.Add(b[sectionEnd:])
	}
	foreign := bytes.Clone(file[sectionEnd:])
	foreign[len(stateMagic)-1]++
	f.Add(foreign)
	section := file[sectionHeaderLen:sectionEnd]
	obs := make([]float64, cfg.StateDim)
	f.Fuzz(func(t *testing.T, rest []byte) {
		data := appendSection(section, nil, rest)
		b, err := LoadAgentBytes(data)
		if err != nil {
			return
		}
		for _, v := range greedy(t, b, obs) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("greedy action %v", v)
			}
		}
		saved, err := b.StateBytes(false)
		if err != nil {
			t.Fatal(err)
		}
		in, err := ReadCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ReadCheckpoint(saved)
		if err != nil {
			t.Fatalf("the loaded agent's own checkpoint is refused: %v", err)
		}
		for name, pair := range map[string][2][]byte{
			"actor": {in.frame, out.frame}, "critic": {in.critic, out.critic},
			"actor target": {in.actorTarget, out.actorTarget}, "critic target": {in.criticTarget, out.criticTarget},
			"actor optimizer": {in.actorOpt, out.actorOpt}, "critic optimizer": {in.criticOpt, out.criticOpt},
		} {
			if !bytes.Equal(pair[0], pair[1]) {
				t.Fatalf("the %s does not write back as it was read", name)
			}
		}
		for i := range in.noise {
			if math.Float64bits(in.noise[i]) != math.Float64bits(out.noise[i]) {
				t.Fatal("the noise does not write back as it was read")
			}
		}
		if math.Float64bits(in.sigma) != math.Float64bits(out.sigma) || in.learnSteps != out.learnSteps {
			t.Fatal("sigma or LearnSteps does not write back as it was read")
		}
		fillReplay(b, cfg, 2*cfg.BatchSize, 3)
		ok := plausible(b)
		if loss := b.Learn(); ok && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			t.Fatalf("Learn on plausible networks returned %v", loss)
		}
	})
}
