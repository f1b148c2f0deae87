package nn

import (
	"math"
	"math/rand"
	"testing"
)

// f32TestNet builds a small odd-sized MLP (tails exercised) with f32
// mirrors enabled, plus a row-major input batch in both precisions.
func f32TestNet(t testing.TB, rows int) (*Network, []float64, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	net := MustMLP([]int{9, 31, 13, 5}, ReLU, Tanh, rng)
	net.EnableF32()
	x := make([]float64, rows*9)
	x32 := make([]float32, rows*9)
	for i := range x {
		x[i] = rng.NormFloat64()
		x32[i] = float32(x[i])
	}
	return net, x, x32
}

// relClose reports |a-b| <= tol * max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestForwardBatchF32MatchesF64 bounds the single-precision forward
// pass against the f64 reference: a few-thousand-parameter MLP stays
// within ~1e-5 relative error per output.
func TestForwardBatchF32MatchesF64(t *testing.T) {
	for _, rows := range []int{1, 3, 4, 7, 32} {
		net, x, x32 := f32TestNet(t, rows)
		want := net.ForwardBatch(x, rows)
		got := net.ForwardBatchF32(x32, rows)
		if len(got) != len(want) {
			t.Fatalf("rows=%d: f32 output len %d, want %d", rows, len(got), len(want))
		}
		for i := range want {
			if !relClose(float64(got[i]), want[i], 1e-5) {
				t.Errorf("rows=%d out[%d]: f32 %v vs f64 %v", rows, i, got[i], want[i])
			}
		}
	}
}

// TestBackwardBatchF32MatchesF64 bounds the f32 parameter and input
// gradients against the f64 reference on the same minibatch.
func TestBackwardBatchF32MatchesF64(t *testing.T) {
	const rows = 6
	net, x, x32 := f32TestNet(t, rows)
	dOut := make([]float64, rows*5)
	dOut32 := make([]float32, rows*5)
	rng := rand.New(rand.NewSource(97))
	for i := range dOut {
		dOut[i] = rng.NormFloat64()
		dOut32[i] = float32(dOut[i])
	}

	net.ForwardBatch(x, rows)
	net.ZeroGrad()
	wantDX := net.BackwardBatch(dOut, rows)
	wantG := net.GradSlices()

	net.ForwardBatchF32(x32, rows)
	ZeroGrad[float32](net)
	gotDX := net.BackwardBatchF32(dOut32, rows)
	gotG := gradsAt[float32](net)

	for i := range wantDX {
		if !relClose(float64(gotDX[i]), wantDX[i], 1e-4) {
			t.Errorf("dX[%d]: f32 %v vs f64 %v", i, gotDX[i], wantDX[i])
		}
	}
	for i := range wantG {
		for j := range wantG[i] {
			if !relClose(float64(gotG[i][j]), wantG[i][j], 1e-4) {
				t.Errorf("grad slice %d idx %d: f32 %v vs f64 %v", i, j, gotG[i][j], wantG[i][j])
			}
		}
	}
}

// TestF32KernelsMatchGo compares the AVX2 f32 kernels against the
// pure-Go fallbacks over one full train step (forward, backward, and
// the optimizer step with its target update). FMA contraction rounds
// differently, so the bound is a relative tolerance rather than bit
// equality.
func TestF32KernelsMatchGo(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels not selected on this CPU")
	}
	run := func(simd bool) ([][]float32, [][]float32) {
		defer func(v bool) { useSIMD = v }(useSIMD)
		useSIMD = simd
		rng := rand.New(rand.NewSource(103))
		net := MustMLP([]int{9, 31, 5}, ReLU, Tanh, rng) // odd sizes exercise tails
		net.EnableF32()
		target := net.Clone()
		target.EnableF32()
		opt := MustAdam(0.01)
		opt.ClipNorm = 0.5
		x := make([]float32, 4*9)
		dOut := make([]float32, 4*5)
		drv := rand.New(rand.NewSource(107))
		for step := 0; step < 25; step++ {
			for i := range x {
				x[i] = float32(drv.NormFloat64())
			}
			for i := range dOut {
				dOut[i] = float32(drv.NormFloat64())
			}
			ZeroGrad[float32](net)
			net.ForwardBatchF32(x, 4)
			net.BackwardBatchF32(dOut, 4)
			AdamStep[float32](opt, net, 0.25, target, 0.01)
		}
		params := paramsAt[float32](net)
		targets := paramsAt[float32](target)
		return params, targets
	}
	gotP, gotT := run(true)
	wantP, wantT := run(false)
	for i := range wantP {
		for j := range wantP[i] {
			if !relClose(float64(gotP[i][j]), float64(wantP[i][j]), 1e-4) {
				t.Fatalf("param slice %d idx %d: simd %v scalar %v", i, j, gotP[i][j], wantP[i][j])
			}
			if !relClose(float64(gotT[i][j]), float64(wantT[i][j]), 1e-4) {
				t.Fatalf("target slice %d idx %d: simd %v scalar %v", i, j, gotT[i][j], wantT[i][j])
			}
		}
	}
}

// TestTanh32Accuracy bounds the rational float32 tanh against the
// float64 reference: a few ulps on the active range, exact saturation
// beyond it, odd symmetry at zero.
func TestTanh32Accuracy(t *testing.T) {
	var maxErr float64
	for x := -12.0; x <= 12.0; x += 1.0 / 512 {
		got := float64(tanh32(float32(x)))
		want := math.Tanh(x)
		if err := math.Abs(got - want); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 1e-6 {
		t.Errorf("tanh32 max abs error %v, want <= 1e-6", maxErr)
	}
	if tanh32(40) != 1 || tanh32(-40) != -1 {
		t.Error("tanh32 does not saturate to ±1")
	}
	if tanh32(0) != 0 {
		t.Errorf("tanh32(0) = %v", tanh32(0))
	}
}

// TestEnableFlushF32RoundTrip: enabling snapshots the f64 weights,
// flushing writes the (possibly trained) mirrors back.
func TestEnableFlushF32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	net := MustMLP([]int{4, 8, 2}, ReLU, Linear, rng)
	if net.layers[0].f32.w != nil {
		t.Fatal("f32 mirrors exist before EnableF32")
	}
	before := append([]float64(nil), net.layers[0].W...)
	net.EnableF32()
	if net.layers[0].f32.w == nil {
		t.Fatal("EnableF32 did not create mirrors")
	}
	net.FlushF32()
	for i, w := range net.layers[0].W {
		if w != float64(float32(before[i])) {
			t.Fatalf("flush after enable: W[%d] = %v, want f32 rounding of %v", i, w, before[i])
		}
	}
	// A trained mirror lands in the f64 weights on flush.
	net.layers[0].f32.w[0] = 42
	net.FlushF32()
	if net.layers[0].W[0] != 42 {
		t.Fatalf("flush ignored mirror update: W[0] = %v", net.layers[0].W[0])
	}
}
