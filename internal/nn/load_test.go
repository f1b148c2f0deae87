package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
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

// FuzzNetworkUnmarshal fuzzes the package's one network decoder,
// LoadParams, into a live 5-7-3 network: any byte string is refused
// with every parameter bit untouched — with ErrNotParamFrame whenever it
// lacks the frame magic — or loaded, and then the network's own frame
// is those bytes exactly and every pass runs on it. The committed corpus
// (testdata/fuzz/FuzzNetworkUnmarshal) is the gob encoding networks had
// before the frame: ill-formed networks, a truncated stream and a valid
// 5-7-3 network ("valid"), all of which must now be refused; the f.Add
// seeds are the receiver's own frame and one of another activation.
func FuzzNetworkUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	n := MustMLP([]int{5, 7, 3}, ReLU, Tanh, rng)
	start := n.ParamFrame()
	f.Add(start)
	f.Add(MustMLP([]int{5, 7, 3}, ReLU, Linear, rng).ParamFrame())
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
		x := make([]float64, rows*5)
		n.Forward(x[:5])
		n.ForwardBatch(x, rows)
		n.BackwardBatch(make([]float64, rows*3), rows)
	})
}

// hostileMoments returns ill-shaped variants of the valid moments
// (m, v) of an optimizer at step t, at one element type.
func hostileMoments[T float](t int, m, v [][]T) map[string]moments[T] {
	last := len(m) - 1
	edit := func(src [][]T, i int, f func([]T) []T) [][]T {
		dst := copy2(src)
		dst[i] = f(dst[i])
		return dst
	}
	short := func(s []T) []T { return s[:len(s)-1] }
	long := func(s []T) []T { return append(s, 0) }
	return map[string]moments[T]{
		"short":       {t, edit(m, 0, short), edit(v, 0, short)},
		"short-last":  {t, edit(m, last, short), edit(v, last, short)},
		"long":        {t, edit(m, 0, long), edit(v, 0, long)},
		"ragged":      {t, edit(m, 1, short), v},
		"count-short": {t, m[:last], v[:last]},
		"count-long":  {t, append(copy2(m), nil), append(copy2(v), nil)},
		"m-without-v": {t, m, nil},
		"v-without-m": {t, nil, v},
		"one-scalar":  {t, [][]T{{1}}, [][]T{{1}}},
		"negative-t":  {-1, m, v},
	}
}

// TestAdamSetStateRejectsHostile: optimizer moments come from disk
// with the rest of a checkpoint, and AdamStep indexes them by the
// network's parameter shapes (the assembly kernels get a bare pointer
// and the parameter count). Every ill-shaped state, at either element
// type and with the other type's moments valid or absent, must come
// back as an error that leaves the optimizer as it was and still able
// to step.
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
			_, g32 := views[float32](net)
			for _, g := range g32 {
				for i := range g {
					g[i] = float32(rng.NormFloat64())
				}
			}
			AdamStep[float64](opt, net, 1, target, 0.01)
			AdamStep[float32](opt, net, 1, target, 0.01)
		}
		step()
		valid := opt.State()
		if err := opt.SetState(valid, net); err != nil {
			t.Fatalf("valid state rejected: %v", err)
		}

		var cases []AdamState
		var names []string
		for name, h := range hostileMoments(valid.T, valid.M, valid.V) {
			names = append(names, "f64 "+name, "f64 "+name+", no f32")
			cases = append(cases,
				AdamState{T: h.t, M: h.m, V: h.v, T32: valid.T32, M32: valid.M32, V32: valid.V32},
				AdamState{T: h.t, M: h.m, V: h.v})
		}
		for name, h := range hostileMoments(valid.T32, valid.M32, valid.V32) {
			names = append(names, "f32 "+name, "f32 "+name+", no f64")
			cases = append(cases,
				AdamState{T: valid.T, M: valid.M, V: valid.V, T32: h.t, M32: h.m, V32: h.v},
				AdamState{T32: h.t, M32: h.m, V32: h.v})
		}
		for i, st := range cases {
			if err := opt.SetState(st, net); err == nil {
				t.Errorf("simd=%v %s: SetState accepted it", simd, names[i])
			}
			if got := opt.State(); !reflect.DeepEqual(got, valid) {
				t.Fatalf("simd=%v %s: a rejected state changed the optimizer", simd, names[i])
			}
		}
		step()

		// Without a network to compare with, m and v must still agree
		// slice by slice.
		ragged := hostileMoments(valid.T32, valid.M32, valid.V32)["ragged"]
		if err := opt.SetState(AdamState{T32: ragged.t, M32: ragged.m, V32: ragged.v}, nil); err == nil {
			t.Errorf("simd=%v: SetState(ragged f32, nil network) accepted it", simd)
		}
	}
}
