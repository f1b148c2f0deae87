package nn

import (
	"math/rand"
	"testing"
)

// testSplitParity verifies the fused backward against the passes it
// replaces, bit for bit, at element type T: parameter gradients from
// the first half must equal a standalone params-only pass over that
// half; the second half's input gradients from column col on must
// equal the same window of an input-only pass over all rows and of a
// standalone input-only pass over that half alone; and an input-only
// pass must leave the parameter gradients untouched. Halves are
// multiples of four so every row lands in the same dot4 lane in every
// run.
func testSplitParity[T float](t *testing.T, sizes []int, half, col int) {
	rows := 2 * half
	in, out := sizes[0], sizes[len(sizes)-1]
	build := func() *Network {
		net := MustMLP(sizes, ReLU, Tanh, rand.New(rand.NewSource(42)))
		net.EnableF32()
		return net
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]T, rows*in)
	for i := range x {
		x[i] = T(rng.NormFloat64())
	}
	dY := make([]T, rows*out)
	for i := range dY {
		dY[i] = T(rng.NormFloat64())
	}

	// Reference pass 1: parameter gradients from the first half.
	ref := build()
	ForwardBatch(ref, x[:half*in], half)
	ZeroGrad[T](ref)
	BackwardBatchParams(ref, dY[:half*out], half)
	_, refGrads := views[T](ref)

	// Reference pass 2: input gradients from the second half alone.
	ref2 := build()
	ForwardBatch(ref2, x[half*in:], half)
	refDX2 := backwardBatch(ref2, dY[half*out:], half, 0, 0, 0)

	// Reference pass 3: input gradients of every row, no parameters.
	ref3 := build()
	ForwardBatch(ref3, x, rows)
	ZeroGrad[T](ref3)
	refDX := backwardBatch(ref3, dY, rows, 0, 0, 0)
	_, grads3 := views[T](ref3)
	for li, g := range grads3 {
		for j := range g {
			if g[j] != 0 {
				t.Fatalf("input-only pass accumulated parameter gradient %d[%d] = %v", li, j, g[j])
			}
		}
	}

	// Fused pass over both halves at once.
	fused := build()
	ForwardBatch(fused, x, rows)
	ZeroGrad[T](fused)
	dX := BackwardBatchSplit(fused, dY, rows, half, col)

	_, grads := views[T](fused)
	for li, g := range grads {
		for j := range g {
			if g[j] != refGrads[li][j] {
				t.Fatalf("grad slice %d[%d]: fused %v, reference %v", li, j, g[j], refGrads[li][j])
			}
		}
	}
	cols := in - col
	if len(dX) != half*cols {
		t.Fatalf("dX has %d elements, want %d × %d", len(dX), half, cols)
	}
	for r := 0; r < half; r++ {
		for c := 0; c < cols; c++ {
			got := dX[r*cols+c]
			if want := refDX[(half+r)*in+col+c]; got != want {
				t.Fatalf("dX[%d][%d]: fused %v, input-only %v", half+r, col+c, got, want)
			}
			if want := refDX2[r*in+col+c]; got != want {
				t.Fatalf("dX[%d][%d]: fused %v, second half alone %v", half+r, col+c, got, want)
			}
		}
	}
}

func TestBackwardBatchSplitParity(t *testing.T) {
	testSplitParity[float64](t, []int{7, 16, 16, 3}, 8, 0)
	testSplitParity[float64](t, []int{9, 31, 13, 5}, 4, 5)
}

func TestF32SplitMatchesSeparate(t *testing.T) {
	testSplitParity[float32](t, []int{7, 16, 16, 3}, 8, 3)
	testSplitParity[float32](t, []int{9, 31, 13, 5}, 4, 0)
}

// TestBackwardBatchSplitGradRowsClamp: gradRows beyond rows behaves
// like a full params pass, and leaves no probe rows to differentiate.
func TestBackwardBatchSplitGradRowsClamp(t *testing.T) {
	sizes := []int{4, 8, 2}
	a := MustMLP(sizes, Tanh, Linear, rand.New(rand.NewSource(3)))
	b := MustMLP(sizes, Tanh, Linear, rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 4*4)
	dY := make([]float64, 4*2)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range dY {
		dY[i] = rng.NormFloat64()
	}
	a.ForwardBatch(x, 4)
	a.ZeroGrad()
	a.BackwardBatchParams(dY, 4)
	b.ForwardBatch(x, 4)
	b.ZeroGrad()
	if dx := BackwardBatchSplit(b, dY, 4, 99, 1); len(dx) != 0 {
		t.Fatalf("no probe rows, yet %d input gradients", len(dx))
	}
	ga, gb := a.GradSlices(), b.GradSlices()
	for li := range ga {
		for j := range ga[li] {
			if ga[li][j] != gb[li][j] {
				t.Fatalf("grad %d[%d]: %v vs %v", li, j, ga[li][j], gb[li][j])
			}
		}
	}
}
