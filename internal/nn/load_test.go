package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestLoadParams: an in-place load equals a rebuild, and a frame whose
// LAST layer is the one that mismatches changes nothing — the check
// covers the whole network before the first copy.
func TestLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := MustMLP([]int{6, 9, 4}, ReLU, Tanh, rng)
	dst := MustMLP([]int{6, 9, 4}, ReLU, Tanh, rng)
	if err := dst.LoadParams(src.ParamFrame()); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.ParamSlices() {
		for j := range p {
			if math.Float64bits(p[j]) != math.Float64bits(dst.ParamSlices()[i][j]) {
				t.Fatalf("param slice %d[%d] not loaded", i, j)
			}
		}
	}

	before := dst.ParamFrame()
	for name, other := range map[string]*Network{
		"last layer wider":      MustMLP([]int{6, 9, 5}, ReLU, Tanh, rng),
		"last layer activation": MustMLP([]int{6, 9, 4}, ReLU, Linear, rng),
		"one layer more":        MustMLP([]int{6, 9, 4, 4}, ReLU, Tanh, rng),
		"one layer fewer":       MustMLP([]int{6, 4}, ReLU, Tanh, rng),
		"same size, transposed": MustMLP([]int{6, 4, 9}, ReLU, Tanh, rng),
	} {
		if err := dst.LoadParams(other.ParamFrame()); err == nil {
			t.Errorf("%s: LoadParams accepted a mismatched network", name)
		}
		if !bytes.Equal(before, dst.ParamFrame()) {
			t.Fatalf("%s: a rejected load was partially applied", name)
		}
	}
}

// TestParamFrame pins the broadcast codec's costs and exactness: the
// encoder makes one allocation, of exactly the frame; the decoder makes
// none; and every bit pattern survives the trip — NaN payloads, -0,
// infinities and subnormals included — so encode ∘ load ∘ encode is the
// identity on frames.
func TestParamFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := MustMLP([]int{5, 7, 3}, ReLU, Tanh, rng)
	odd := []uint64{
		0x7ff8000000000001, 0x7ff4000000000000, 0xfff8dead0000beef, // quiet, signalling and negative NaNs
		0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, // -0, ±Inf
		1, 0x800fffffffffffff, // subnormals
	}
	for i, p := range src.ParamSlices() {
		for j := range p {
			if (i+j)%3 == 0 {
				p[j] = math.Float64frombits(odd[(i+j)%len(odd)])
			}
		}
	}
	frame := src.ParamFrame()
	wantLen := 8 + 4 + 2*12 + 8*src.NumParams()
	if len(frame) != wantLen || cap(frame) != wantLen {
		t.Fatalf("frame is %d bytes in a %d-byte buffer, want exactly %d", len(frame), cap(frame), wantLen)
	}
	dst := MustMLP([]int{5, 7, 3}, ReLU, Tanh, rng)
	if err := dst.LoadParams(frame); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.ParamSlices() {
		for j := range p {
			if math.Float64bits(p[j]) != math.Float64bits(dst.ParamSlices()[i][j]) {
				t.Fatalf("param slice %d[%d]: bits %x became %x", i, j, math.Float64bits(p[j]), math.Float64bits(dst.ParamSlices()[i][j]))
			}
		}
	}
	if !bytes.Equal(frame, dst.ParamFrame()) {
		t.Fatal("frame does not round-trip")
	}
	if n := testing.AllocsPerRun(50, func() { frame = src.ParamFrame() }); n != 1 {
		t.Errorf("ParamFrame makes %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := dst.LoadParams(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("loading a frame makes %v allocations, want 0", n)
	}
	// AppendParamFrame is the same encoder: it leaves what dst holds
	// alone, and handed its own frame back it rewrites it in place.
	if got := src.AppendParamFrame([]byte("head")); string(got[:4]) != "head" || !bytes.Equal(got[4:], frame) {
		t.Error("AppendParamFrame after a prefix is not the prefix and the frame")
	}
	if n := testing.AllocsPerRun(50, func() { frame = src.AppendParamFrame(frame[:0]) }); n != 0 {
		t.Errorf("re-encoding into the previous frame makes %v allocations, want 0", n)
	}
	if !bytes.Equal(frame, dst.ParamFrame()) {
		t.Error("a frame re-encoded in place differs from a fresh one")
	}
}

// TestMLPFrameLen: the length computed from sizes alone is the length of
// the built network's frame, and sizes whose parameter count does not
// fit — however the product would wrap — are refused, not wrapped.
func TestMLPFrameLen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sizes := range [][]int{{5, 3}, {5, 7, 3}, {12, 48, 48, 15}} {
		n, ok := MLPFrameLen(sizes)
		if want := len(MustMLP(sizes, ReLU, Tanh, rng).ParamFrame()); !ok || n != want {
			t.Errorf("MLPFrameLen(%v) = %d, %v, want %d", sizes, n, ok, want)
		}
	}
	for _, sizes := range [][]int{
		nil, {4}, {4, 0}, {4, -1, 3},
		{1 << 32, 1 << 32}, // (In+1)·Out overflows 64 bits; In·Out wraps to 0
		{1 << 31, 1 << 31}, // the product fits; 8× it does not
		{1, 1 << 58, 2},    // each layer fits; the sum does not
		{math.MaxInt, 1},
	} {
		if n, ok := MLPFrameLen(sizes); ok {
			t.Errorf("MLPFrameLen(%v) = %d, want refused", sizes, n)
		}
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzNetworkUnmarshal")

// fuzzSizes shapes FuzzNetworkUnmarshal's receiver: two layers, and a
// 244-byte frame, so the committed corpus stays small.
var fuzzSizes = []int{3, 4, 2}

// networkSeeds is FuzzNetworkUnmarshal's committed corpus: a valid
// frame of another network of the receiver's shape and that frame with
// one thing wrong in each of the others, so that the fuzzer starts past
// the magic at every check LoadParams makes (doc.go, "Parameter frame").
func networkSeeds() map[string][]byte {
	valid := MustMLP(fuzzSizes, ReLU, Tanh, rand.New(rand.NewSource(43))).ParamFrame()
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	put32 := func(at int, v uint32) []byte {
		return edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b })
	}
	const (
		count  = len(paramMagic)           // the layer count
		layer0 = frameHeaderLen            // layer 0's In, Out, Act
		layer1 = layer0 + layerHeaderLen   // layer 1's
		w0     = layer0 + 2*layerHeaderLen // layer 0's W, 3·4 float64s
	)
	return map[string][]byte{
		"valid":        valid,
		"bad-magic":    edit(func(b []byte) []byte { b[len(paramMagic)-1]++; return b }),
		"truncated":    valid[:len(valid)/2],
		"short-b":      valid[:len(valid)-8],
		"no-w":         append(bytes.Clone(valid[:w0]), valid[w0+8*3*4:]...),
		"short-acts":   valid[:layer1+8], // cut before layer 1's Act
		"zero-sizes":   put32(count, 0),
		"one-size":     put32(count, 1),
		"zero-in":      put32(layer0, 0),
		"negative":     put32(layer0, math.MaxUint32),
		"giant":        put32(layer0+4, 1<<31),
		"w-mismatch":   put32(layer1, 5), // layer 1's In is not layer 0's Out
		"unknown-act":  put32(layer1+8, 9),
		"negative-act": put32(layer0+8, math.MaxUint32),
		// In·Out = 2³² wraps to 0 in 32 bits.
		"giant-wraps": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[layer0:], 1<<16)
			binary.LittleEndian.PutUint32(b[layer0+4:], 1<<16)
			return b
		}),
	}
}

// TestCheckMLPFrameMatchesCheckParams: the network-free check gives
// every frame the error CheckParams gives it — networkSeeds, frames of
// the wrong activation and of the wrong layer count, and the network's
// own frame, which both accept — and MLPFromFrame builds exactly what
// the check accepts: an inference-only network whose frame is the one it
// read and whose Forward is bit-identical to a network that loaded it.
// Sizes NewMLP refuses refuse every frame.
func TestCheckMLPFrameMatchesCheckParams(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := MustMLP(fuzzSizes, ReLU, Tanh, rng)
	rows := networkSeeds()
	for name, sizes := range map[string][]int{"own frame": fuzzSizes, "one layer more": {3, 4, 4, 2}, "one layer fewer": {3, 2}} {
		rows[name] = MustMLP(sizes, ReLU, Tanh, rng).ParamFrame()
	}
	rows["output activation"] = MustMLP(fuzzSizes, ReLU, Linear, rng).ParamFrame()
	rows["hidden activation"] = MustMLP(fuzzSizes, Linear, Tanh, rng).ParamFrame()
	accepted := 0
	for name, frame := range rows {
		want := n.CheckParams(frame)
		if got := CheckMLPFrame(frame, fuzzSizes, ReLU, Tanh); fmt.Sprint(got) != fmt.Sprint(want) || errors.Is(got, ErrNotParamFrame) != errors.Is(want, ErrNotParamFrame) {
			t.Errorf("%s: CheckMLPFrame returned %v, CheckParams %v", name, got, want)
		}
		m, err := MLPFromFrame(frame, fuzzSizes, ReLU, Tanh)
		if fmt.Sprint(err) != fmt.Sprint(want) || (err == nil) != (m != nil) {
			t.Errorf("%s: MLPFromFrame returned %v, CheckParams %v", name, err, want)
		}
		if err != nil {
			continue
		}
		accepted++
		if !bytes.Equal(m.ParamFrame(), frame) {
			t.Errorf("%s: the built network's frame is not the one it read", name)
		}
		for i, l := range m.layers {
			if l.f64.dw != nil || l.f64.db != nil {
				t.Errorf("%s: layer %d of a network built from a frame holds gradient buffers", name, i)
			}
		}
		if err := n.LoadParams(frame); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, fuzzSizes[0])
		for round := 0; round < 10; round++ {
			for i := range x {
				x[i] = 2 * rng.NormFloat64()
			}
			want := append([]float64(nil), n.Forward(x)...)
			for i, v := range m.Forward(x) {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%s: round %d: built out[%d] = %v, loaded %v", name, round, i, v, want[i])
				}
			}
		}
	}
	if accepted != 2 { // "valid" and "own frame"
		t.Errorf("%d frames accepted, want 2", accepted)
	}
	for _, sizes := range [][]int{nil, {3}, {3, 0, 2}, {3, -4, 2}} {
		if err := CheckMLPFrame(rows["valid"], sizes, ReLU, Tanh); err == nil {
			t.Errorf("sizes %v accepted a frame", sizes)
		}
	}
}

// TestNetworkUnmarshalCorpus keeps the committed corpus in step with
// networkSeeds, whose every seed but "valid" the receiver refuses;
// `go test ./internal/nn -run TestNetworkUnmarshalCorpus -update-corpus`
// rewrites it.
func TestNetworkUnmarshalCorpus(t *testing.T) {
	n := MustMLP(fuzzSizes, ReLU, Tanh, rand.New(rand.NewSource(41)))
	dir := filepath.Join("testdata", "fuzz", "FuzzNetworkUnmarshal")
	for name, data := range networkSeeds() {
		if err := n.CheckParams(data); (err == nil) != (name == "valid") {
			t.Errorf("seed %s: CheckParams returned %v", name, err)
		}
		path := filepath.Join(dir, name)
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("corpus seed %s is missing or stale (go test ./internal/nn -run TestNetworkUnmarshalCorpus -update-corpus): %v", name, err)
		}
	}
}

// FuzzNetworkUnmarshal fuzzes the package's one network decoder,
// LoadParams, into a live 3-4-2 network: any byte string is refused
// with every parameter bit untouched — with ErrNotParamFrame whenever it
// lacks the frame magic — or loaded, and then the network's own frame
// is those bytes exactly and every pass runs on it. The committed corpus
// is networkSeeds; the f.Add seeds are the receiver's own frame and one
// of another activation.
func FuzzNetworkUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	n := MustMLP(fuzzSizes, ReLU, Tanh, rng)
	start := n.ParamFrame()
	f.Add(start)
	f.Add(MustMLP(fuzzSizes, ReLU, Linear, rng).ParamFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := n.LoadParams(start); err != nil {
			t.Fatal(err)
		}
		if err := n.LoadParams(data); err != nil {
			if !bytes.HasPrefix(data, []byte(paramMagic)) && !errors.Is(err, ErrNotParamFrame) {
				t.Fatalf("bytes without the frame magic refused with %v, want ErrNotParamFrame", err)
			}
			if !bytes.Equal(n.ParamFrame(), start) {
				t.Fatal("a refused input changed the network")
			}
			return
		}
		if !bytes.Equal(n.ParamFrame(), data) {
			t.Fatal("an accepted frame does not read back byte for byte")
		}
		const rows = 5 // one 4-row group and a remainder row
		in, out := fuzzSizes[0], fuzzSizes[len(fuzzSizes)-1]
		x := make([]float64, rows*in)
		n.Forward(x[:in])
		n.ForwardBatch(x, rows)
		n.BackwardBatch(make([]float64, rows*out), rows)
	})
}

// TestAdamSetStateRejectsHostile: optimizer moments come from disk
// with the rest of a checkpoint, and AdamStep indexes them by the
// network's parameter shapes (the assembly kernels get a bare pointer
// and the parameter count). Every hostile edit of a valid state's bytes,
// at either element type — a negative step count, a count claiming
// moments that are not there or denying ones that are, one moment short
// or long, a non-finite moment, a negative second moment — must come
// back as an error that leaves the optimizer as it was and still able
// to step. The layout has no per-slice lengths, so ragged or
// mis-shaped moments are one of these: a record of the wrong length.
func TestAdamSetStateRejectsHostile(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		rng := rand.New(rand.NewSource(137))
		net := MustMLP([]int{8, 16, 1}, ReLU, Linear, rng)
		net.EnableF32()
		target := net.Clone()
		target.EnableF32()
		opt := MustAdam(1e-3)
		opt.ClipNorm = 5
		step := func() {
			for _, g := range net.GradSlices() {
				for i := range g {
					g[i] = rng.NormFloat64()
				}
			}
			g32 := gradsAt[float32](net)
			for _, g := range g32 {
				for i := range g {
					g[i] = float32(rng.NormFloat64())
				}
			}
			AdamStep[float64](opt, net, 1, target, 0.01)
			AdamStep[float32](opt, net, 1, target, 0.01)
		}
		step()
		valid := opt.AppendState(nil)
		if err := opt.LoadState(valid, net); err != nil {
			t.Fatalf("valid state rejected: %v", err)
		}
		if again := opt.AppendState(nil); !bytes.Equal(again, valid) {
			t.Fatal("a loaded state does not write back byte for byte")
		}

		p := net.NumParams()
		f32At := 8 + 16*p // the f32 record: its count, then 8·p bytes of moments
		le := binary.LittleEndian
		edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
		put64 := func(at int, v uint64) []byte {
			return edit(func(b []byte) []byte { le.PutUint64(b[at:], v); return b })
		}
		putF64 := func(at int, v float64) []byte { return put64(at, math.Float64bits(v)) }
		putF32 := func(at int, v float32) []byte {
			return edit(func(b []byte) []byte { le.PutUint32(b[at:], math.Float32bits(v)); return b })
		}
		cut := func(at, n int) []byte {
			return edit(func(b []byte) []byte { return append(b[:at], b[at+n:]...) })
		}
		grow := func(at, n int) []byte {
			return edit(func(b []byte) []byte { return append(b[:at], append(make([]byte, n), b[at:]...)...) })
		}
		cases := map[string][]byte{
			"f64 negative t":        put64(0, 1<<63),
			"f64 count without m/v": put64(0, 0),
			"f64 short":             cut(8+8*p, 8),
			"f64 short-last":        cut(f32At-8, 8),
			"f64 long":              grow(8+8*p, 8),
			"f64 NaN m":             putF64(8, math.NaN()),
			"f64 infinite v":        putF64(8+8*p, math.Inf(1)),
			"f64 negative v":        putF64(8+8*p+8, -1),
			"f32 negative t":        put64(f32At, 1<<63),
			"f32 count without m/v": put64(f32At, 0),
			"f32 one scalar":        edit(func(b []byte) []byte { return le.AppendUint32(le.AppendUint32(b[:f32At+8], 1), 1) }),
			"f32 short":             cut(f32At+8+4*p, 4),
			"f32 short-last":        cut(len(valid)-4, 4),
			"f32 long":              grow(f32At+8, 4),
			"f32 NaN v":             putF32(f32At+8+4*p, float32(math.NaN())),
			"f32 negative v":        putF32(len(valid)-4, -1),
			"truncated count":       valid[:4],
			"trailing byte":         append(bytes.Clone(valid), 0),
		}
		// A fresh optimizer's state, two zero counts, claims no moments.
		fresh := MustAdam(1e-3).AppendState(nil)
		cases["f64 moments without a count"] = append(le.AppendUint64(nil, 3), fresh[8:]...)
		for name, bad := range cases {
			if err := opt.LoadState(bad, net); err == nil {
				t.Errorf("simd=%v %s: LoadState accepted it", simd, name)
			}
			if got := opt.AppendState(nil); !bytes.Equal(got, valid) {
				t.Fatalf("simd=%v %s: a rejected state changed the optimizer", simd, name)
			}
		}
		if err := opt.LoadState(fresh, net); err != nil {
			t.Fatalf("a fresh optimizer's state was refused: %v", err)
		}
		if err := opt.LoadState(valid, net); err != nil {
			t.Fatal(err)
		}
		step()

		// The state of another network's parameter count is refused.
		other := MustMLP([]int{8, 15, 1}, ReLU, Linear, rng)
		if err := opt.LoadState(valid, other); err == nil {
			t.Errorf("simd=%v: the state of %d parameters loaded for %d", simd, p, other.NumParams())
		}
	}
}
