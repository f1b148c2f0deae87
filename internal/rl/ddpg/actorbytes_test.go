package ddpg

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"greennfv/internal/nn"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzLoadActorBytes")

// frameConfig shapes the agents of the hostile-bytes tests: a
// three-layer actor (3 → 4 → 3 → 2) whose whole frame is 360 bytes, so
// the committed corpus stays small and the fuzzer's mutations land on
// the header as often as on the parameters.
func frameConfig() Config {
	cfg := smallConfig()
	cfg.Hidden = []int{4, 3}
	return cfg
}

// frameAgent is the receiving end the hostile-bytes tests load into: an
// acting agent with the f32 acting path on, so the actor has float32
// mirrors a bad load could also corrupt.
func frameAgent(t testing.TB) *Agent {
	t.Helper()
	a, err := New(frameConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.SetActFloat32(true)
	return a
}

// actorState is everything LoadActorBytes may write: the bit pattern of
// every actor parameter and, read through a float32 batch pass, the
// actor's float32 mirrors.
func actorState(a *Agent) []uint64 {
	var bits []uint64
	for _, p := range a.Actor.ParamSlices() {
		for _, v := range p {
			bits = append(bits, math.Float64bits(v))
		}
	}
	const rows = 5
	probe := make([]float32, rows*a.cfg.StateDim)
	for i := range probe {
		probe[i] = float32(i%7)/3 - 1
	}
	for _, v := range nn.ForwardBatch(a.Actor, probe, rows) {
		bits = append(bits, uint64(math.Float32bits(v)))
	}
	return bits
}

// Byte offsets in the frame of frameConfig's actor: magic, layer count,
// then In/Out/Act of each of the three layers.
var frameMagic = []byte("GNFVPRM1")

const (
	frameCountAt   = 8
	frameLayer0At  = 12
	frameLayerSize = 12
)

// hostileFrames are ActorBytes frames of the receiving agent's own
// shape with one thing wrong each — "bad-magic" is a frame of another
// format version — and what a peer of another shape sends. None may be
// accepted.
func hostileFrames(t testing.TB) map[string][]byte {
	a, err := New(frameConfig())
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := a.ActorBytes()
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	put32 := func(at int, v uint32) []byte {
		return edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b })
	}
	out1 := frameLayer0At + frameLayerSize + 4 // layer 1's Out
	wide := frameConfig()
	wide.Hidden = []int{4, 5}
	other, _ := New(wide)
	otherFrame, _ := other.ActorBytes()
	return map[string][]byte{
		"empty":            {},
		"bad-magic":        edit(func(b []byte) []byte { b[7] = '2'; return b }),
		"magic-only":       valid[:8],
		"truncated-header": valid[:frameLayer0At+5],
		"header-only":      valid[:frameLayer0At+3*frameLayerSize],
		"short-1":          valid[:len(valid)-1],
		"short-8":          valid[:len(valid)-8],
		"long-1":           edit(func(b []byte) []byte { return append(b, 0) }),
		"long-8":           edit(func(b []byte) []byte { return append(b, make([]byte, 8)...) }),
		"trailing-frame":   edit(func(b []byte) []byte { return append(b, valid...) }),
		"layers-0":         put32(frameCountAt, 0),
		"layers-2":         put32(frameCountAt, 2),
		"layers-max":       put32(frameCountAt, math.MaxUint32),
		"out-changed":      put32(out1, 5),
		"in-changed":       put32(frameLayer0At, 4),
		"act-changed":      put32(frameLayer0At+8, uint32(nn.Tanh)),
		"act-out-of-range": put32(frameLayer0At+2*frameLayerSize+8, 9),
		"act-negative":     put32(frameLayer0At+8, math.MaxUint32),
		// In·Out = 2³² wraps to 0 in 32 bits.
		"size-wraps-32": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameLayer0At+frameLayerSize:], 1<<16)
			binary.LittleEndian.PutUint32(b[out1:], 1<<16)
			return b
		}),
		"other-shape-frame": otherFrame,
	}
}

// TestAppendActorBytesInPlace: the broadcast encoder writes the frame
// ActorBytes writes — on the float32 path too, where each flushes the
// trained mirrors first — and, handed its previous frame back, rewrites
// it without allocating.
func TestAppendActorBytesInPlace(t *testing.T) {
	cfg := DefaultConfig(12, 15)
	cfg.BatchSize = 16
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.SetFloat32(true)
	frame := a.AppendActorBytes(nil)
	for u, batch := range fixedMinibatches(cfg, 3) {
		a.LearnBatch(batch, nil, nil)
		if n := testing.AllocsPerRun(1, func() { frame = a.AppendActorBytes(frame[:0]) }); n != 0 {
			t.Errorf("update %d: re-encoding into the previous frame makes %v allocations, want 0", u, n)
		}
		if want, _ := a.ActorBytes(); !bytes.Equal(frame, want) {
			t.Fatalf("update %d: AppendActorBytes and ActorBytes encode different frames", u)
		}
	}
}

// TestLoadActorBytesRejectsHostileFrames: bytes from a peer or a file
// that are not exactly this actor's frame come back as an error — nn's
// own ErrNotParamFrame when the magic is not the frame's — leave every
// parameter and float32 mirror as it was, and cost no allocation that
// grows with anything the bytes claim.
func TestLoadActorBytesRejectsHostileFrames(t *testing.T) {
	b := frameAgent(t)
	before := actorState(b)
	for name, frame := range hostileFrames(t) {
		err := b.LoadActorBytes(frame)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !bytes.HasPrefix(frame, frameMagic) && !errors.Is(err, nn.ErrNotParamFrame) {
			t.Errorf("%s: refused with %v, want nn.ErrNotParamFrame", name, err)
		}
		if after := actorState(b); !slices.Equal(before, after) {
			t.Fatalf("%s: rejected bytes changed the actor", name)
		}
		if bytes.HasPrefix(frame, frameMagic) {
			if n := testing.AllocsPerRun(10, func() { _ = b.LoadActorBytes(frame) }); n > 1 {
				t.Errorf("%s: rejecting it makes %v allocations", name, n)
			}
		}
	}
}

// TestActorFrameCheckMatchesCheckParams: the serving reader's
// network-free check of an actor frame and PolicyFromFrame refuse each
// hostile frame with the error the agent's own actor network gives it,
// and accept its own frame.
func TestActorFrameCheckMatchesCheckParams(t *testing.T) {
	a, err := New(frameConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames := hostileFrames(t)
	frames["own frame"], _ = a.ActorBytes()
	for name, frame := range frames {
		want := a.Actor.CheckParams(frame)
		if got := checkActorFrame(frameConfig(), frame); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: checkActorFrame returned %v, the actor's CheckParams %v", name, got, want)
		}
		p, err := PolicyFromFrame(frameConfig(), frame)
		if (err == nil) != (want == nil) || (err != nil && !strings.HasSuffix(err.Error(), want.Error())) {
			t.Errorf("%s: PolicyFromFrame returned %v, the actor's CheckParams %v", name, err, want)
		}
		if err == nil && !bytes.Equal(p.Actor.ParamFrame(), frame) {
			t.Errorf("%s: PolicyFromFrame holds other actor bits", name)
		}
	}
}

// gobNetwork is a network as its gob encoding held it before the
// parameter frame — what Policy.Save wrote for the actor: layer sizes,
// activations (ReLU hidden, Tanh out), weights and biases, all zero
// here. Nothing writes that form any more; it is built here so that the
// readers' refusal of it stays pinned.
func gobNetwork(t testing.TB, sizes []int) []byte {
	t.Helper()
	var st struct {
		Sizes []int
		Acts  []int
		W, B  [][]float64
	}
	st.Sizes = sizes
	for i := 1; i < len(sizes); i++ {
		act := nn.ReLU
		if i == len(sizes)-1 {
			act = nn.Tanh
		}
		st.Acts = append(st.Acts, int(act))
		st.W = append(st.W, make([]float64, sizes[i-1]*sizes[i]))
		st.B = append(st.B, make([]float64, sizes[i]))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadActorBytesRefusesLegacyGob: a policy file saved before the
// frame existed — the actor's gob encoding, of this agent's shape and
// of a wider one — is refused with nn's ErrNotParamFrame, and leaves
// every actor parameter and float32 mirror as it was.
func TestLoadActorBytesRefusesLegacyGob(t *testing.T) {
	b := frameAgent(t)
	before := actorState(b)
	wide := frameConfig()
	wide.Hidden = []int{4, 5}
	for name, cfg := range map[string]Config{"own shape": frameConfig(), "other shape": wide} {
		if err := b.LoadActorBytes(gobNetwork(t, actorSizes(cfg))); !errors.Is(err, nn.ErrNotParamFrame) {
			t.Errorf("%s: LoadActorBytes returned %v, want nn.ErrNotParamFrame", name, err)
		}
		if !slices.Equal(before, actorState(b)) {
			t.Fatalf("%s: a refused policy file changed the actor", name)
		}
	}
}

// FuzzLoadActorBytes: any byte string is either refused with the actor
// and its float32 mirrors bit-for-bit untouched, or loaded — and then it
// was a frame, which reads back byte for byte (NaN payloads and -0
// included). The committed corpus (testdata/fuzz/FuzzLoadActorBytes) is
// hostileFrames plus a valid frame and a frame of NaNs and signed
// zeros; `go test . -run TestLoadActorBytesCorpus -update-corpus`
// rewrites it.
func FuzzLoadActorBytes(f *testing.F) {
	// One receiving pair per fuzz process, put back to the same
	// parameters before every input: building an agent costs far more
	// than loading a frame.
	a, b := frameAgent(f), frameAgent(f)
	start, _ := a.ActorBytes()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := a.LoadActorBytes(start); err != nil {
			t.Fatal(err)
		}
		before := actorState(a)
		if err := a.LoadActorBytes(data); err != nil {
			if !slices.Equal(before, actorState(a)) {
				t.Fatal("rejected bytes changed the actor")
			}
			return
		}
		out, _ := a.ActorBytes()
		if !bytes.Equal(out, data) {
			t.Fatal("an accepted frame does not read back byte for byte")
		}
		if err := b.LoadActorBytes(out); err != nil {
			t.Fatalf("an agent's own frame was refused: %v", err)
		}
		if again, _ := b.ActorBytes(); !bytes.Equal(again, out) {
			t.Fatal("ActorBytes → LoadActorBytes → ActorBytes changed the frame")
		}
	})
}

// TestLoadActorBytesCorpus keeps the committed fuzz corpus in step with
// hostileFrames: every seed is present with exactly these bytes.
func TestLoadActorBytesCorpus(t *testing.T) {
	seeds := hostileFrames(t)
	a, _ := New(frameConfig())
	seeds["valid"], _ = a.ActorBytes()
	odd := []uint64{0x7ff8000000000001, 0x7ff4000000000000, 0xfff8dead0000beef, 1 << 63, 0x7ff0000000000000, 1}
	for i, p := range a.Actor.ParamSlices() {
		for j := range p {
			p[j] = math.Float64frombits(odd[(i+j)%len(odd)])
		}
	}
	seeds["valid-nan-negzero"], _ = a.ActorBytes()
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadActorBytes")
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("corpus seed %s is missing or stale (go test . -run TestLoadActorBytesCorpus -update-corpus): %v", name, err)
		}
	}
}
