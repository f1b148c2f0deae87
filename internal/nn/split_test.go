package nn

import (
	"math/rand"
	"testing"
)

// testSplitParity verifies the fused backward against the passes it
// replaces, bit for bit, at element type T: parameter gradients from
// the first half must equal a standalone params-only pass over that
// half; input gradients must equal an input-only pass over all rows
// and, for the second half, a standalone input-only pass over that
// half alone; and an input-only pass must leave the parameter
// gradients untouched. Halves are multiples of four so every row lands
// in the same dot4 lane in every run.
func testSplitParity[T float](t *testing.T, sizes []int, half int) {
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
	refDX2 := backwardBatch(ref2, dY[half*out:], half, true, 0)

	// Reference pass 3: input gradients of every row, no parameters.
	ref3 := build()
	ForwardBatch(ref3, x, rows)
	ZeroGrad[T](ref3)
	refDX := backwardBatch(ref3, dY, rows, true, 0)
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
	dX := BackwardBatchSplit(fused, dY, rows, half)

	_, grads := views[T](fused)
	for li, g := range grads {
		for j := range g {
			if g[j] != refGrads[li][j] {
				t.Fatalf("grad slice %d[%d]: fused %v, reference %v", li, j, g[j], refGrads[li][j])
			}
		}
	}
	for i := range refDX {
		if dX[i] != refDX[i] {
			t.Fatalf("dX[%d]: fused %v, input-only %v", i, dX[i], refDX[i])
		}
	}
	for i := range refDX2 {
		if dX[half*in+i] != refDX2[i] {
			t.Fatalf("dX[%d]: fused %v, second half alone %v", half*in+i, dX[half*in+i], refDX2[i])
		}
	}
}

func TestBackwardBatchSplitParity(t *testing.T) {
	testSplitParity[float64](t, []int{7, 16, 16, 3}, 8)
	testSplitParity[float64](t, []int{9, 31, 13, 5}, 4)
}

func TestF32SplitMatchesSeparate(t *testing.T) {
	testSplitParity[float32](t, []int{7, 16, 16, 3}, 8)
	testSplitParity[float32](t, []int{9, 31, 13, 5}, 4)
}

// TestBackwardBatchSplitGradRowsClamp: gradRows beyond rows behaves
// like a full BackwardBatch.
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
	dxa := append([]float64(nil), a.BackwardBatch(dY, 4)...)
	b.ForwardBatch(x, 4)
	b.ZeroGrad()
	dxb := BackwardBatchSplit(b, dY, 4, 99)
	for i := range dxa {
		if dxa[i] != dxb[i] {
			t.Fatalf("dX[%d]: %v vs %v", i, dxa[i], dxb[i])
		}
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
