package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Batched forward must agree with a one-row Forward per row (the two
// paths differ only in floating-point summation order).
func TestForwardBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := MustMLP([]int{7, 12, 9, 3}, ReLU, Tanh, rng)
	ref := net.Clone()
	const rows = 5
	x := make([]float64, rows*7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out := net.ForwardBatch(x, rows)
	if len(out) != rows*3 {
		t.Fatalf("batch output len %d, want %d", len(out), rows*3)
	}
	for r := 0; r < rows; r++ {
		want := ref.Forward(x[r*7 : (r+1)*7])
		got := out[r*3 : (r+1)*3]
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("row %d out[%d] = %v, scalar %v", r, i, got[i], want[i])
			}
		}
	}
}

// Batched backward must accumulate the same parameter gradients and
// input gradients as summing per-row reference backward passes
// (backward_test.go).
func TestBackwardBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, acts := range []struct {
		hidden, out Activation
	}{
		{ReLU, Linear}, {Tanh, Tanh},
	} {
		net := MustMLP([]int{6, 10, 4}, acts.hidden, acts.out, rng)
		ref := net.Clone()
		const rows = 8
		x := make([]float64, rows*6)
		dOut := make([]float64, rows*4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range dOut {
			dOut[i] = rng.NormFloat64()
		}

		net.ZeroGrad()
		net.ForwardBatch(x, rows)
		dXb := net.BackwardBatch(dOut, rows)

		ref.ZeroGrad()
		dXs := make([]float64, rows*6)
		for r := 0; r < rows; r++ {
			ref.Forward(x[r*6 : (r+1)*6])
			copy(dXs[r*6:(r+1)*6], ref.Backward(dOut[r*4:(r+1)*4]))
		}

		gb, gs := net.GradSlices(), ref.GradSlices()
		for li := range gb {
			for j := range gb[li] {
				if math.Abs(gb[li][j]-gs[li][j]) > 1e-9 {
					t.Fatalf("%v/%v grad slice %d idx %d: batch %v scalar %v",
						acts.hidden, acts.out, li, j, gb[li][j], gs[li][j])
				}
			}
		}
		for i := range dXb {
			if math.Abs(dXb[i]-dXs[i]) > 1e-9 {
				t.Fatalf("%v/%v dX[%d]: batch %v scalar %v",
					acts.hidden, acts.out, i, dXb[i], dXs[i])
			}
		}
	}
}

// The batch path must handle a shrinking then growing batch without
// reading stale cache rows.
func TestBatchSizeChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net := MustMLP([]int{3, 5, 2}, ReLU, Linear, rng)
	ref := net.Clone()
	for _, rows := range []int{4, 1, 6, 2} {
		x := make([]float64, rows*3)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		out := net.ForwardBatch(x, rows)
		for r := 0; r < rows; r++ {
			want := ref.Forward(x[r*3 : (r+1)*3])
			for i := range want {
				if math.Abs(out[r*2+i]-want[i]) > 1e-12 {
					t.Fatalf("rows=%d row %d differs", rows, r)
				}
			}
		}
	}
}

// TestDropCachesChangesNoBit: a network that drops its caches between
// passes computes what its twin that keeps them computes, bit for bit
// — batch outputs, parameter and input gradients at both element
// types, and the one-row Forward — and a layer that dropped them holds
// no cache slice.
func TestDropCachesChangesNoBit(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	kept := MustMLP([]int{7, 12, 9, 3}, ReLU, Tanh, rng)
	dropped := kept.Clone()
	kept.EnableF32()
	dropped.EnableF32()
	const rows = 6
	x, dOut := make([]float64, rows*7), make([]float64, rows*3)
	for _, v := range [][]float64{x, dOut} {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	x32, d32 := make([]float32, len(x)), make([]float32, len(dOut))
	for i, v := range x {
		x32[i] = float32(v)
	}
	for i, v := range dOut {
		d32[i] = float32(v)
	}
	pass := func(n *Network) []float64 {
		n.ZeroGrad()
		ZeroGrad[float32](n)
		out := append([]float64(nil), n.ForwardBatch(x, rows)...)
		n.BackwardBatchParams(dOut, rows)
		out = append(out, n.BackwardBatch(dOut, rows)...)
		for _, v := range ForwardBatch(n, x32, rows) {
			out = append(out, float64(v))
		}
		BackwardBatchParams(n, d32, rows)
		for _, g := range n.GradSlices() {
			out = append(out, g...)
		}
		grads32 := gradsAt[float32](n)
		for _, g := range grads32 {
			for _, v := range g {
				out = append(out, float64(v))
			}
		}
		return append(out, n.Forward(x[:7])...)
	}
	for round := 0; round < 3; round++ {
		want, got := pass(kept), pass(dropped)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: value %d is %v, want %v", round, i, got[i], want[i])
			}
		}
		dropped.DropCaches()
		for li, l := range dropped.layers {
			for _, held := range []bool{l.f64.bdz != nil, l.f64.bdx != nil, l.f64.wt != nil,
				l.f32.bdz != nil, l.f32.bdx != nil, l.f32.wt != nil, l.bnz != nil} {
				if held {
					t.Errorf("round %d: layer %d kept a backward cache", round, li)
				}
			}
			if l.f64.bx != nil || l.f64.bz != nil || l.f64.by != nil ||
				l.f32.bx != nil || l.f32.bz != nil || l.f32.by != nil {
				t.Errorf("round %d: layer %d forward caches %d/%d/%d and %d/%d/%d long", round, li,
					len(l.f64.bx), len(l.f64.bz), len(l.f64.by), len(l.f32.bx), len(l.f32.bz), len(l.f32.by))
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, dropped.DropCaches); allocs != 0 {
		t.Errorf("DropCaches allocates %v/op", allocs)
	}
}

// TestDroppedGradsRegrow: gradients are allocated by the pass that
// writes them. A new network holds none; one whose gradients are
// dropped between updates (DropGrads, which allocates nothing and
// leaves no gradient buffer at either element type) trains bit for bit
// like a twin that kept them — its weights and its target's after
// rounds of ZeroGrad → BackwardBatchParams → AdamStep, at both element
// types. In every other round after a drop the network skips ZeroGrad,
// so its backward pass is what regrows the gradients.
func TestDroppedGradsRegrow(t *testing.T) {
	t.Run("f64", testDroppedGradsRegrow[float64])
	t.Run("f32", testDroppedGradsRegrow[float32])
}

func testDroppedGradsRegrow[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{7, 12, 9, 3}
	kept := MustMLP(sizes, ReLU, Tanh, rng)
	dropped, keptTarget, droppedTarget := kept.Clone(), kept.Clone(), kept.Clone()
	holdsGrads := func(n *Network) bool {
		for _, l := range n.layers {
			if l.f64.dw != nil || l.f64.db != nil || l.f32.dw != nil || l.f32.db != nil {
				return true
			}
		}
		return false
	}
	if holdsGrads(kept) {
		t.Fatal("a new network holds gradient buffers")
	}
	type learner struct {
		net, target *Network
		opt         *Adam
	}
	var ls [2]learner
	for i, n := range [][2]*Network{{kept, keptTarget}, {dropped, droppedTarget}} {
		n[0].EnableF32()
		n[1].EnableF32()
		ls[i] = learner{n[0], n[1], MustAdam(1e-2)}
		ls[i].opt.ClipNorm = 1
	}
	const rows, rounds = 5, 12
	x, dOut := make([]T, rows*sizes[0]), make([]T, rows*sizes[len(sizes)-1])
	for round := 0; round < rounds; round++ {
		for _, v := range [][]T{x, dOut} {
			for i := range v {
				v[i] = T(rng.NormFloat64())
			}
		}
		for _, l := range ls {
			ForwardBatch(l.net, x, rows)
			if l.net != dropped || round%6 != 2 {
				ZeroGrad[T](l.net)
			}
			BackwardBatchParams(l.net, dOut, rows)
			AdamStep(l.opt, l.net, 1/T(rows), l.target, 0.1)
		}
		if round%3 == 1 {
			if allocs := testing.AllocsPerRun(1, dropped.DropGrads); allocs != 0 {
				t.Errorf("DropGrads allocates %v/op", allocs)
			}
			if holdsGrads(dropped) {
				t.Fatalf("round %d: a network that dropped its gradients holds gradient buffers", round)
			}
		}
	}
	for _, pair := range [][2]*Network{{kept, dropped}, {keptTarget, droppedTarget}} {
		want, got := paramsAt[T](pair[0]), paramsAt[T](pair[1])
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(float64(got[i][j])) != math.Float64bits(float64(want[i][j])) {
					t.Fatalf("parameter %d[%d] is %v, its twin that kept its gradients %v", i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// testZeroAllocSteadyState: a whole train step at element type T —
// the batch passes (full, split and windowed backward) and the
// optimizer step with its target update — must not allocate once warm.
func testZeroAllocSteadyState[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := MustMLP([]int{27, 48, 48, 1}, ReLU, Linear, rng)
	net.EnableF32()
	target := net.Clone()
	target.EnableF32()
	opt := MustAdam(1e-3)
	const rows = 32
	x := make([]T, rows*27)
	dOut := make([]T, rows)
	for i := range x {
		x[i] = T(rng.NormFloat64())
	}
	for i := range dOut {
		dOut[i] = T(rng.NormFloat64())
	}
	step := func() {
		ForwardBatch(net, x, rows)
		ZeroGrad[T](net)
		backwardBatch(net, dOut, rows, rows, 0, 0)
		BackwardBatchSplit(net, dOut, rows, rows/2, 22)
		AdamStep(opt, net, T(1.0/rows), target, T(0.01))
	}
	step() // warm scratch, moments and slice caches
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("steady-state train step allocates %v/op, want 0", allocs)
	}
}

// TestBatchZeroAllocSteadyState: a warm train step allocates nothing at
// float64 (testZeroAllocSteadyState), a budget `go test -race` cannot
// check.
func TestBatchZeroAllocSteadyState(t *testing.T) { testZeroAllocSteadyState[float64](t) }

// TestF32ZeroAllocSteadyState: the same at float32.
func TestF32ZeroAllocSteadyState(t *testing.T) { testZeroAllocSteadyState[float32](t) }

// testDotKernel checks dot, dot4 and rows4 (the assembly of T's width
// where selected, the pure-Go loop otherwise) against a naive float64
// accumulation, including tail lengths.
func testDotKernel[T float](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(61))
	for n := 0; n <= 19; n++ {
		a := make([]T, n)
		b := make([]T, n)
		var want float64
		for i := range a {
			a[i] = T(rng.NormFloat64())
			b[i] = T(rng.NormFloat64())
			want += float64(a[i]) * float64(b[i])
		}
		if got := dot(a, b); !relClose(float64(got), want, tol) {
			t.Errorf("dot len %d = %v, want %v", n, got, want)
		}
		if r0, _, _, _ := dot4(a, b, b, b, b); !relClose(float64(r0), want, tol) {
			t.Errorf("dot4 len %d = %v, want %v", n, r0, want)
		}
		if n > 0 {
			x4 := append(append(append(append([]T(nil), b...), b...), b...), b...)
			z := make([]T, 4)
			rows4(a, x4, nil, z, n, 1)
			if !relClose(float64(z[0]), want, tol) || z[0] != z[1] || z[0] != z[3] {
				t.Errorf("rows4 len %d = %v, want %v", n, z, want)
			}
		}
	}
}

func TestDotKernel(t *testing.T)    { testDotKernel[float64](t, 1e-12) }
func TestDotKernelF32(t *testing.T) { testDotKernel[float32](t, 1e-5) }

// benchNet matches the GreenNFV critic shape (27 -> 48 -> 48 -> 1).
func benchNet[T float](b *testing.B) (*Network, []T, []T, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net := MustMLP([]int{27, 48, 48, 1}, ReLU, Linear, rng)
	net.EnableF32()
	const rows = 32
	x := make([]T, rows*27)
	dOut := make([]T, rows)
	for i := range x {
		x[i] = T(rng.NormFloat64())
	}
	for i := range dOut {
		dOut[i] = T(rng.NormFloat64())
	}
	return net, x, dOut, rows
}

func benchForwardBatch[T float](b *testing.B) {
	net, x, _, rows := benchNet[T](b)
	ForwardBatch(net, x, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardBatch(net, x, rows)
	}
}

func benchBackwardBatch[T float](b *testing.B) {
	net, x, dOut, rows := benchNet[T](b)
	ForwardBatch(net, x, rows)
	backwardBatch(net, dOut, rows, rows, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backwardBatch(net, dOut, rows, rows, 0, 0)
	}
}

func BenchmarkDenseForwardBatch(b *testing.B)     { benchForwardBatch[float64](b) }
func BenchmarkDenseBackwardBatch(b *testing.B)    { benchBackwardBatch[float64](b) }
func BenchmarkDenseForwardBatchF32(b *testing.B)  { benchForwardBatch[float32](b) }
func BenchmarkDenseBackwardBatchF32(b *testing.B) { benchBackwardBatch[float32](b) }

// BenchmarkDenseForwardScalarLoop is one Forward per sample over the
// same 32-row minibatch, for comparison with BenchmarkDenseForwardBatch.
func BenchmarkDenseForwardScalarLoop(b *testing.B) {
	net, x, _, rows := benchNet[float64](b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			net.Forward(x[r*27 : (r+1)*27])
		}
	}
}

// BenchmarkDenseForward is one Forward end to end — what a
// serving decision and an actor's step pay — on the serving actor
// (12→48→48→15) and on the cluster sweep's (104→48→48→114).
func BenchmarkDenseForward(b *testing.B) {
	for _, sizes := range [][]int{{12, 48, 48, 15}, {104, 48, 48, 114}} {
		b.Run(fmt.Sprintf("%dx%d", sizes[0], sizes[3]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net := MustMLP(sizes, ReLU, Tanh, rng)
			x := make([]float64, sizes[0])
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			b.ReportAllocs()
			for b.Loop() {
				net.Forward(x)
			}
		})
	}
}

// BenchmarkTanhBatch is the Tanh leaf over an actor head's minibatch:
// 32 rows of 15 and of 114.
func BenchmarkTanhBatch(b *testing.B) {
	for _, n := range []int{480, 3648} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			z, y := make([]float64, n), make([]float64, n)
			for i := range z {
				z[i] = 2 * rng.NormFloat64()
			}
			b.ReportAllocs()
			for b.Loop() {
				applyBatch(Tanh, z, y)
			}
		})
	}
}

// The optimizer kernels (Adam with the target update, gradient
// scaling) must be bit-identical to the pure-Go loops: they mirror
// them operation for operation. Only meaningful where the kernels are
// selected.
func TestOptimizerKernelsBitExact(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels not selected on this CPU")
	}
	build := func() (*Network, *Adam) {
		rng := rand.New(rand.NewSource(71))
		net := MustMLP([]int{9, 31, 5}, ReLU, Tanh, rng) // odd sizes exercise tails
		opt := MustAdam(0.01)
		opt.ClipNorm = 0.5
		return net, opt
	}
	run := func(simd bool) ([][]float64, [][]float64) {
		defer func(v bool) { useSIMD = v }(useSIMD)
		useSIMD = simd
		net, opt := build()
		target := net.Clone()
		x := make([]float64, 9)
		dOut := make([]float64, 5)
		rng := rand.New(rand.NewSource(73))
		for step := 0; step < 25; step++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range dOut {
				dOut[i] = rng.NormFloat64()
			}
			net.ZeroGrad()
			net.Forward(x)
			net.Backward(dOut)
			AdamStep(opt, net, 0.125, target, 0.01)
		}
		return net.ParamSlices(), target.ParamSlices()
	}
	gotP, gotT := run(true)
	wantP, wantT := run(false)
	for i := range wantP {
		for j := range wantP[i] {
			if gotP[i][j] != wantP[i][j] {
				t.Fatalf("param slice %d idx %d: simd %v scalar %v", i, j, gotP[i][j], wantP[i][j])
			}
			if gotT[i][j] != wantT[i][j] {
				t.Fatalf("target slice %d idx %d: simd %v scalar %v", i, j, gotT[i][j], wantT[i][j])
			}
		}
	}
}
