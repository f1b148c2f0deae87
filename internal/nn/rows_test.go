package nn

import (
	"math/rand"
	"testing"
)

// ForwardRows exists for one reason: a row's bits do not depend on the
// rows batched with it (ForwardBatch only promises a tolerance — its
// fused kernels reassociate the sums). Forward is ForwardRows with one
// row, so this pins every row of an n-row pass against a one-row pass
// of the same input. The deterministic figure path and the actors'
// bit-for-bit priority verification stand on this test.
func TestForwardRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][]int{
		{7, 12, 9, 3},
		{4, 16, 1},
		{10, 24, 24, 5},
	}
	acts := []struct{ hidden, out Activation }{
		{ReLU, Tanh}, {Tanh, Linear}, {Sigmoid, Sigmoid},
	}
	for si, sizes := range shapes {
		for ai, a := range acts {
			net := MustMLP(sizes, a.hidden, a.out, rng)
			ref := net.Clone()
			in, out := sizes[0], sizes[len(sizes)-1]
			// Varying row counts reuse (and regrow) the shared scratch.
			for _, rows := range []int{1, 3, 8, 2} {
				x := make([]float64, rows*in)
				for i := range x {
					x[i] = rng.NormFloat64() * 2
				}
				got := net.ForwardRows(x, rows)
				if len(got) != rows*out {
					t.Fatalf("shape %d act %d: output len %d, want %d", si, ai, len(got), rows*out)
				}
				for r := 0; r < rows; r++ {
					want := ref.Forward(x[r*in : (r+1)*in])
					for j := range want {
						if got[r*out+j] != want[j] {
							t.Errorf("shape %d act %d rows %d: row %d out[%d] = %v, one row %v (not bit-identical)",
								si, ai, rows, r, j, got[r*out+j], want[j])
						}
					}
				}
			}
		}
	}
}

// ForwardRows shares the batch scratch with ForwardBatch; interleaving
// the two must not corrupt either result.
func TestForwardRowsInterleavedWithBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	net := MustMLP([]int{6, 14, 4}, ReLU, Tanh, rng)
	ref := net.Clone()
	const rows = 5
	x := make([]float64, rows*6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	_ = net.ForwardBatch(x, rows)
	got := net.ForwardRows(x, rows)
	for r := 0; r < rows; r++ {
		want := ref.Forward(x[r*6 : (r+1)*6])
		for j := range want {
			if got[r*4+j] != want[j] {
				t.Errorf("after ForwardBatch: row %d out[%d] = %v, one row %v", r, j, got[r*4+j], want[j])
			}
		}
	}
}

// Steady-state ForwardRows and Forward must not allocate (the acting
// hot path runs one every environment step, serving one every report),
// on either kernel set: the layers are wide enough that the product and
// the Tanh head go through their kernels where selected.
func TestForwardRowsNoAllocs(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		rng := rand.New(rand.NewSource(71))
		net := MustMLP([]int{6, 14, 9}, ReLU, Tanh, rng)
		const rows = 4
		x := make([]float64, rows*6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		net.ForwardRows(x, rows) // warm the scratch
		if avg := testing.AllocsPerRun(50, func() { net.ForwardRows(x, rows) }); avg != 0 {
			t.Errorf("simd=%v: ForwardRows allocates %.1f per call, want 0", simd, avg)
		}
		if avg := testing.AllocsPerRun(50, func() { net.Forward(x[:6]) }); avg != 0 {
			t.Errorf("simd=%v: Forward allocates %.1f per call, want 0", simd, avg)
		}
	}
}
