package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func encodeState(t testing.TB, st netState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileStates are well-formed gobs of ill-formed networks. The first
// is the reproduced panic: one layer declared, no W to index.
func hostileStates(t testing.TB) map[string][]byte {
	w6, b2 := make([]float64, 6), make([]float64, 2)
	// Size products that wrap around the int width: to 0, and to 12,
	// the length of a W that is really there.
	const half, quarter = 1 << (bits.UintSize / 2), 1 << (bits.UintSize - 2)
	return map[string][]byte{
		"no-w":         encodeState(t, netState{Sizes: []int{3, 2}, Acts: []Activation{ReLU}}),
		"short-b":      encodeState(t, netState{Sizes: []int{3, 2}, Acts: []Activation{ReLU}, W: [][]float64{w6}}),
		"short-acts":   encodeState(t, netState{Sizes: []int{3, 2, 2}, Acts: []Activation{ReLU}, W: [][]float64{w6}, B: [][]float64{b2}}),
		"one-size":     encodeState(t, netState{Sizes: []int{3}}),
		"zero-sizes":   encodeState(t, netState{Sizes: []int{0, 0}, Acts: []Activation{ReLU}, W: [][]float64{{}}, B: [][]float64{{}}}),
		"zero-in":      encodeState(t, netState{Sizes: []int{0, 2}, Acts: []Activation{ReLU}, W: [][]float64{{}}, B: [][]float64{b2}}),
		"negative":     encodeState(t, netState{Sizes: []int{-3, -2}, Acts: []Activation{ReLU}, W: [][]float64{w6}, B: [][]float64{b2}}),
		"giant":        encodeState(t, netState{Sizes: []int{half, half}, Acts: []Activation{ReLU}, W: [][]float64{{}}, B: [][]float64{{}}}),
		"giant-wraps":  encodeState(t, netState{Sizes: []int{quarter + 3, 4}, Acts: []Activation{ReLU}, W: [][]float64{make([]float64, 12)}, B: [][]float64{make([]float64, 4)}}),
		"w-mismatch":   encodeState(t, netState{Sizes: []int{4, 2}, Acts: []Activation{ReLU}, W: [][]float64{w6}, B: [][]float64{b2}}),
		"unknown-act":  encodeState(t, netState{Sizes: []int{3, 2}, Acts: []Activation{Activation(9)}, W: [][]float64{w6}, B: [][]float64{b2}}),
		"negative-act": encodeState(t, netState{Sizes: []int{3, 2}, Acts: []Activation{Activation(-1)}, W: [][]float64{w6}, B: [][]float64{b2}}),
	}
}

// TestUnmarshalRejectsHostileState: bytes from a remote peer must come
// back as an error, never a panic, and leave the receiver untouched.
func TestUnmarshalRejectsHostileState(t *testing.T) {
	live := MustMLP([]int{3, 2}, ReLU, Linear, rand.New(rand.NewSource(1)))
	before, err := live.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := hostileStates(t)
	cases["truncated"] = before[:len(before)/2]
	cases["empty"] = nil
	for name, blob := range cases {
		if err := new(Network).UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted it", name)
		}
		if err := live.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: UnmarshalBinary over a live network accepted it", name)
		}
		if err := live.LoadParams(blob); err == nil {
			t.Errorf("%s: LoadParams accepted it", name)
		}
		after, err := live.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: a rejected blob changed the live network", name)
		}
	}
}

// TestLoadParams: an in-place load equals a rebuild, and a blob whose
// LAST layer is the one that mismatches changes nothing — the check
// covers the whole network before the first copy.
func TestLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := MustMLP([]int{6, 9, 4}, ReLU, Tanh, rng)
	dst := MustMLP([]int{6, 9, 4}, ReLU, Tanh, rng)
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadParams(blob); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.ParamSlices() {
		for j := range p {
			if math.Float64bits(p[j]) != math.Float64bits(dst.ParamSlices()[i][j]) {
				t.Fatalf("param slice %d[%d] not loaded", i, j)
			}
		}
	}

	before, _ := dst.MarshalBinary()
	for name, other := range map[string]*Network{
		"last layer wider":      MustMLP([]int{6, 9, 5}, ReLU, Tanh, rng),
		"last layer activation": MustMLP([]int{6, 9, 4}, ReLU, Linear, rng),
		"one layer more":        MustMLP([]int{6, 9, 4, 4}, ReLU, Tanh, rng),
		"one layer fewer":       MustMLP([]int{6, 4}, ReLU, Tanh, rng),
	} {
		blob, err := other.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadParams(blob); err == nil {
			t.Errorf("%s: LoadParams accepted a mismatched network", name)
		}
		after, _ := dst.MarshalBinary()
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: a rejected load was partially applied", name)
		}
	}
}

// FuzzNetworkUnmarshal: any byte string is either rejected with the
// receiver untouched, or yields a network every pass can run on. The
// seeds are the committed corpus (testdata/fuzz/FuzzNetworkUnmarshal):
// the hostile states above, a truncated gob and a valid 5-7-3 network.
func FuzzNetworkUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if err := n.UnmarshalBinary(data); err != nil {
			if n.layers != nil {
				t.Fatal("a rejected blob left layers behind")
			}
			return
		}
		const rows = 5 // one 4-row group and a remainder row
		x := make([]float64, rows*n.InputDim())
		n.Forward(x[:n.InputDim()])
		n.ForwardBatch(x, rows)
		n.BackwardBatch(make([]float64, rows*n.OutputDim()), rows)
		blob, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := n.LoadParams(blob); err != nil {
			t.Fatalf("a network rejects its own parameters: %v", err)
		}
	})
}
