package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// This file pins the kernel contract of doc.go: the batch passes must
// equal, bit for bit, a reference that computes every element on its
// own with the arithmetic the contract names — nothing tiled, nothing
// shared between elements.

// setSIMD selects the kernel set for one test and restores it after.
func setSIMD(t *testing.T, on bool) {
	t.Helper()
	prev := useSIMD
	useSIMD = on
	t.Cleanup(func() { useSIMD = prev })
}

// refProduct is one element w·x of a 4-row group: refRows4 with the
// AVX2+FMA kernels; with the fallback the pure-Go dot4, whose rows are
// independent.
func refProduct(w, x []float64, simd bool) float64 {
	if !simd {
		s, _, _, _ := dot4(w, x, x, x, x)
		return s
	}
	return refRows4(w, x)
}

// refLayer is one dense layer computed element by element.
type refLayer struct {
	in, out      int
	act          Activation
	w, b, dw, db []float64
	x, z, y      []float64
}

func (l *refLayer) forward(x []float64, rows int, simd bool) []float64 {
	l.x = append(l.x[:0], x[:rows*l.in]...)
	l.z = make([]float64, rows*l.out)
	l.y = make([]float64, rows*l.out)
	grouped := rows - rows%4
	for r := 0; r < rows; r++ {
		xr := l.x[r*l.in : (r+1)*l.in]
		for o := 0; o < l.out; o++ {
			wo := l.w[o*l.in : (o+1)*l.in]
			if r < grouped {
				l.z[r*l.out+o] = l.b[o] + refProduct(wo, xr, simd)
			} else {
				l.z[r*l.out+o] = l.b[o] + dot(wo, xr)
			}
		}
	}
	applyBatch(l.act, l.z, l.y)
	return l.y
}

func (l *refLayer) backward(dY []float64, rows int, grads, dx bool, simd bool) []float64 {
	dz := make([]float64, rows*l.out)
	derivBatch(l.act, dY[:rows*l.out], l.z, l.y, dz)
	if grads {
		for o := 0; o < l.out; o++ {
			for r := 0; r < rows; r++ {
				v := dz[r*l.out+o]
				if v == 0 {
					continue
				}
				l.db[o] += v
				for i := 0; i < l.in; i++ {
					if simd {
						l.dw[o*l.in+i] = math.FMA(v, l.x[r*l.in+i], l.dw[o*l.in+i])
					} else {
						l.dw[o*l.in+i] += v * l.x[r*l.in+i]
					}
				}
			}
		}
	}
	if !dx {
		return nil
	}
	dX := make([]float64, rows*l.in)
	col := make([]float64, l.out)
	grouped := rows - rows%4
	for i := 0; i < l.in; i++ {
		for o := range col {
			col[o] = l.w[o*l.in+i]
		}
		for r := 0; r < rows; r++ {
			dzr := dz[r*l.out : (r+1)*l.out]
			if r < grouped {
				dX[r*l.in+i] = refProduct(col, dzr, simd)
			} else {
				dX[r*l.in+i] = dot(dzr, col)
			}
		}
	}
	return dX
}

// refNet mirrors a Network layer for layer, sharing nothing with it.
func refNet(n *Network) []*refLayer {
	var ls []*refLayer
	for _, d := range n.layers {
		ls = append(ls, &refLayer{
			in: d.In, out: d.Out, act: d.Act,
			w: append([]float64(nil), d.W...), b: append([]float64(nil), d.B...),
			dw: append([]float64(nil), d.f64.dw...), db: append([]float64(nil), d.f64.db...),
		})
	}
	return ls
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	compareBits(t, what, got, want, false)
}

// sameBitsNaN is sameBits with any NaN equal to any NaN: when two NaNs
// meet in a multiply or an add, which one comes out is the hardware's
// choice of operand, in the kernels and in compiled Go alike.
func sameBitsNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	compareBits(t, what, got, want, true)
}

func compareBits(t *testing.T, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%v), reference %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkKernelParity runs forward and every backward mode on random
// odd-shaped networks against the element-wise reference.
func checkKernelParity(t *testing.T, simd bool) {
	setSIMD(t, simd)
	rng := rand.New(rand.NewSource(127))
	// Fixed shapes hit every kernel path: 1-wide layers (tail only, odd
	// single column), whole-vector widths, the 8-vector gradient tile
	// (In >= 32) with and without a masked remainder, and the paper's
	// critic; the random ones add odd In/Out pairs.
	shapes := [][]int{
		{1, 1}, {2, 3, 1}, {4, 8, 4}, {27, 48, 48, 1}, {32, 5, 33}, {67, 2, 71, 3},
	}
	for len(shapes) < 14 {
		shapes = append(shapes, []int{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	acts := []Activation{ReLU, Linear, Tanh}
	for si, sizes := range shapes {
		for _, rows := range []int{1, 3, 4, 7, 32, 64} {
			net := MustMLP(sizes, acts[si%len(acts)], acts[(si+1)%len(acts)], rng)
			ZeroGrad[float64](net) // allocates the gradients seeded below
			for _, l := range net.layers {
				for i := range l.B {
					l.B[i] = rng.NormFloat64()
				}
				// Gradients accumulate onto what is already there.
				for i := range l.f64.dw {
					l.f64.dw[i] = rng.NormFloat64()
				}
				for i := range l.f64.db {
					l.f64.db[i] = rng.NormFloat64()
				}
			}
			ref := refNet(net)
			in, out := sizes[0], sizes[len(sizes)-1]
			x := make([]float64, rows*in)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			// Exact zeros of both signs in dY reach the zero-skip on
			// Linear layers; ReLU layers make their own (dY * 0 = ±0).
			dY := make([]float64, rows*out)
			for i := range dY {
				switch rng.Intn(5) {
				case 0:
					dY[i] = 0
				case 1:
					dY[i] = math.Copysign(0, -1)
				default:
					dY[i] = rng.NormFloat64()
				}
			}
			name := fmt.Sprintf("simd=%v sizes=%v rows=%d", simd, sizes, rows)

			got := net.ForwardBatch(x, rows)
			want := x
			for _, l := range ref {
				want = l.forward(want, rows, simd)
			}
			sameBits(t, name+" forward", got, want)

			for _, mode := range []struct {
				name      string
				grads, dx bool
			}{
				{"full", true, true}, {"params", true, false}, {"input", false, true},
			} {
				gotDX := backwardBatch(net, dY, rows, mode.grads, mode.dx, 0)
				d := dY
				for i := len(ref) - 1; i >= 0; i-- {
					d = ref[i].backward(d, rows, mode.grads, i > 0 || mode.dx, simd)
				}
				what := name + " backward " + mode.name
				if mode.dx {
					sameBits(t, what+" dX", gotDX, d)
				}
				for li, l := range net.layers {
					sameBits(t, fmt.Sprintf("%s layer %d dW", what, li), l.f64.dw, ref[li].dw)
					sameBits(t, fmt.Sprintf("%s layer %d dB", what, li), l.f64.db, ref[li].db)
				}
			}
		}
	}
}

// TestKernelParityAVX2: the AVX2 kernels' forward and every backward
// mode equal the element-wise reference bit for bit
// (checkKernelParity).
func TestKernelParityAVX2(t *testing.T) {
	if !useSIMD {
		t.Skip("AVX2+FMA kernels not selected on this CPU")
	}
	checkKernelParity(t, true)
}

// TestKernelParityGo: the same for the pure-Go kernels, on any CPU.
func TestKernelParityGo(t *testing.T) { checkKernelParity(t, false) }

// fma32 is a·b + c rounded once to float32. a·b is exact in float64, so
// the float64 sum s is off the exact value by exactly TwoSum's error e,
// and narrowing s is already right unless s lies on a float32 midpoint,
// where e's sign says which way the exact value lies.
func fma32(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	r := float32(s)
	if math.IsNaN(s) || math.IsInf(s, 0) || float64(r) == s {
		return r
	}
	bv := s - p
	e := (p - (s - bv)) + (q - bv)
	other := math.Nextafter32(r, float32(math.Copysign(math.Inf(1), s-float64(r))))
	if e == 0 || (float64(r)+float64(other))/2 != s {
		return r
	}
	if (e > 0) == (other > r) {
		return other
	}
	return r
}

// fmaT is a·b + c rounded once at T's width.
func fmaT[T float](a, b, c T) T {
	if a32, ok := any(a).(float32); ok {
		return T(fma32(a32, float32(b), float32(c)))
	}
	return T(math.FMA(float64(a), float64(b), float64(c)))
}

// refRows4 is one element w·x of a 4-row group as the contract words it
// for the AVX2 kernel at T's width, L = lanes[T]() lanes: lane j sums
// the products at indices ≡ j (mod L) from +0 by FMA; the lanes fold as
// lane j + lane j+L/2, then neighbours pairwise, low operand first —
// (l0+l2)+(l1+l3) at float64, ((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7)) at
// float32; the n%L tail continues by FMA on the sum.
func refRows4[T float](w, x []T) T {
	L := lanes[T]()
	var l [8]T
	i := 0
	for ; i+L <= len(w); i += L {
		for j := 0; j < L; j++ {
			l[j] = fmaT(w[i+j], x[i+j], l[j])
		}
	}
	for j := 0; j < L/2; j++ {
		l[j] = l[j] + l[j+L/2]
	}
	for k := L / 2; k > 1; k /= 2 {
		for j := 0; j < k/2; j++ {
			l[j] = l[2*j] + l[2*j+1]
		}
	}
	s := l[0]
	for ; i < len(w); i++ {
		s = fmaT(w[i], x[i], s)
	}
	return s
}

// checkRows4Tree runs rows4 at T on every shape from n×m = 1×1 to 70×70,
// with and without bias, against refRows4 (bias added first-operand,
// last), and checks nothing past the 4×m outputs is written. Two fills
// per shape: ordinary values; and zeros of both signs, subnormals and
// overflowing magnitudes, dense, with NaNs and infinities, sparse —
// drawn from pools at offsets that differ from shape to shape so every
// special visits every lane of w, x and the bias. n == 1 is the
// kernel's outer-product path: the same element as any other shape with
// no whole vector, fma(w[o], x[r], +0) — so a -0 product comes out +0.
func checkRows4Tree[T float](t *testing.T) {
	var tiny T = 1
	for tiny/2 > 0 {
		tiny /= 2
	}
	big := 3e38
	if wide[T]() {
		big = 1e308
	}
	inf, nan, negZero := T(math.Inf(1)), T(math.NaN()), T(math.Copysign(0, -1))
	finite := []T{0, negZero, tiny, -tiny, 3 * tiny, T(big), -T(big), 1, -1}
	wild := []T{nan, inf, -inf}
	const maxN, maxM, slack = 70, 70, 9
	span := maxM*maxN + 4*maxN + maxM
	rng := rand.New(rand.NewSource(181))
	pools := [2][]T{make([]T, span+maxN*(maxM+1)+maxM), nil}
	pools[1] = make([]T, len(pools[0]))
	for i := range pools[0] {
		pools[0][i] = T(rng.NormFloat64())
		switch v := rng.Intn(16); {
		case v < 5:
			pools[1][i] = finite[rng.Intn(len(finite))]
		case v == 5:
			pools[1][i] = wild[rng.Intn(len(wild))]
		default:
			pools[1][i] = T(rng.NormFloat64())
		}
	}
	z := [2][]T{make([]T, 4*maxM+slack), make([]T, 4*maxM+slack)}
	for n := 1; n <= maxN; n++ {
		for m := 1; m <= maxM; m++ {
			for fill, pool := range pools {
				k := n*(maxM+1) + m
				w, x, b := pool[k:k+m*n], pool[k+m*n:k+m*n+4*n], pool[k+m*n+4*n:k+m*n+4*n+m]
				for i, bias := range [][]T{nil, b} {
					clear(z[i])
					rows4(w, x, bias, z[i][:4*m], n, m)
					for _, v := range z[i][4*m:] {
						if v != 0 {
							t.Fatalf("n=%d m=%d: rows4 wrote past its %d outputs", n, m, 4*m)
						}
					}
				}
				for r := 0; r < 4; r++ {
					for o := 0; o < m; o++ {
						s := refRows4(w[o*n:(o+1)*n], x[r*n:(r+1)*n])
						for i, want := range []T{s, b[o] + s} {
							g, w := float64(z[i][r*m+o]), float64(want)
							if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
								t.Fatalf("%d-bit n=%d m=%d fill=%d bias=%v: z[%d][%d] = %v (%x), reference %v (%x)",
									256/lanes[T](), n, m, fill, i == 1, r, o, g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// TestRows4TreeParity pins the four-row product's "Kernel contract"
// entry on the AVX2 kernels at both widths (the Go path is dot4 itself,
// checked by TestKernelParityGo).
func TestRows4TreeParity(t *testing.T) {
	if !useSIMD {
		t.Skip("AVX2+FMA kernels not selected on this CPU")
	}
	checkRows4Tree[float64](t)
	checkRows4Tree[float32](t)
}

// checkInputColumns holds the windowed first-layer input gradient —
// columns [col0, In) — to the matching slice of the whole pass's dX,
// bit for bit, at T: every odd column offset (a sample of them on wide
// inputs), through backwardBatch and through BackwardBatchInput.
func checkInputColumns[T float](t *testing.T, sizes []int, rows int) {
	rng := rand.New(rand.NewSource(191))
	net := MustMLP(sizes, ReLU, Linear, rng)
	net.EnableF32()
	in := sizes[0]
	x := make([]T, rows*in)
	for i := range x {
		x[i] = T(rng.NormFloat64())
	}
	dY := make([]T, rows*sizes[len(sizes)-1])
	for i := range dY {
		dY[i] = T(rng.NormFloat64())
	}
	ForwardBatch(net, x, rows)
	full := append([]T(nil), backwardBatch(net, dY, rows, false, true, 0)...)
	window := func(what string, got []T, col0 int) {
		t.Helper()
		cols := in - col0
		if len(got) != rows*cols {
			t.Fatalf("%s: %d elements, want %d × %d", what, len(got), rows, cols)
		}
		for r := 0; r < rows; r++ {
			for c := col0; c < in; c++ {
				g, w := got[r*cols+c-col0], full[r*in+c]
				if math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
					t.Fatalf("%s sizes=%v rows=%d col0=%d: dX[%d][%d] = %v, whole pass %v",
						what, sizes, rows, col0, r, c, g, w)
				}
			}
		}
	}
	var offsets []int
	for c := 1; c < in; c += 2 {
		if in < 40 || c < 8 || c%16 == 7 {
			offsets = append(offsets, c)
		}
	}
	for _, col0 := range offsets {
		window("backwardBatch", backwardBatch(net, dY, rows, false, true, col0), col0)
	}
	col0 := offsets[len(offsets)/2]
	window("BackwardBatchInput", BackwardBatchInput(net, dY, rows, col0), col0)
}

// TestBackwardInputColumns: computing the first layer's input gradient
// only for the action columns, as the DDPG critic pass does, changes
// none of the elements it keeps — on both kernel sets, at both widths,
// on the critic shapes of the paper and of the cluster sweep and on odd
// ones.
func TestBackwardInputColumns(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		for _, sizes := range [][]int{{27, 48, 48, 1}, {218, 48, 48, 1}, {9, 31, 5}, {3, 7, 2}} {
			for _, rows := range []int{8, 13, 32} {
				checkInputColumns[float64](t, sizes, rows)
				checkInputColumns[float32](t, sizes, rows)
			}
		}
	}
}

// TestKernelZeroSkipSign is the case that makes the dz == 0 skip part
// of the contract rather than an optimisation: a -0 bias gradient
// must survive a row whose dz is +0, which adding the zero would turn
// into +0.
func TestKernelZeroSkipSign(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		negZero := math.Copysign(0, -1)
		dz := []float64{0, negZero, 0, negZero}
		x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		dw := []float64{negZero, negZero}
		db := []float64{negZero}
		accumGrads(dz, x, dw, db, make([]uint64, 8), 4, 2, 1)
		for _, v := range append(dw, db...) {
			if math.Float64bits(v) != math.Float64bits(negZero) {
				t.Errorf("simd=%v: zero rows changed a -0 gradient to %x", simd, math.Float64bits(v))
			}
		}
	}
}

// TestKernelsF32MatchGoWide covers what the small f32 parity nets do
// not reach: the 8-vector gradient tile (In >= 64 floats), its masked
// remainder, remainder rows and the whole backward pass. f32 has no bit
// contract, so the AVX2 kernels are held to the pure-Go ones within a
// relative tolerance.
func TestKernelsF32MatchGoWide(t *testing.T) {
	if !useSIMD {
		t.Skip("AVX2+FMA kernels not selected on this CPU")
	}
	const rows = 11
	sizes := []int{77, 64, 3, 70, 1}
	run := func(simd bool) (out, dx []float32, grads [][]float32) {
		setSIMD(t, simd)
		rng := rand.New(rand.NewSource(131))
		net := MustMLP(sizes, ReLU, Linear, rng)
		net.EnableF32()
		x := make([]float32, rows*sizes[0])
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		dOut := make([]float32, rows)
		for i := range dOut {
			dOut[i] = float32(rng.NormFloat64())
		}
		out = append(out, net.ForwardBatchF32(x, rows)...)
		ZeroGrad[float32](net)
		dx = append(dx, net.BackwardBatchF32(dOut, rows)...)
		grads = gradsAt[float32](net)
		return out, dx, grads
	}
	gotOut, gotDX, gotG := run(true)
	wantOut, wantDX, wantG := run(false)
	check := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if !relClose(float64(got[i]), float64(want[i]), 1e-4) {
				t.Fatalf("%s[%d]: simd %v, go %v", what, i, got[i], want[i])
			}
		}
	}
	check("out", gotOut, wantOut)
	check("dX", gotDX, wantDX)
	for i := range wantG {
		check(fmt.Sprintf("grad slice %d", i), gotG[i], wantG[i])
	}
}

// reluInputs returns n pre-activations and n upstream gradients that
// put every special value in every lane position of a vector: zeros of
// both signs, infinities, NaNs, subnormals, the largest finite values,
// and negative dY (whose product with a 0 step is -0).
func reluInputs[T float](n int, rng *rand.Rand) (z, dY []T) {
	var tiny T = 1
	for tiny/2 > 0 {
		tiny /= 2 // the smallest subnormal of T
	}
	inf := T(math.Inf(1))
	nan := T(math.NaN())
	special := []T{0, -1 / inf, inf, -inf, nan, -nan, tiny, -tiny, 1, -1, 3e38, -3e38}
	z, dY = make([]T, n), make([]T, n)
	for i := range z {
		z[i], dY[i] = T(rng.NormFloat64()), T(rng.NormFloat64())
		// Coprime strides walk the specials through every lane.
		if i%3 != 2 {
			z[i] = special[(i+i/3)%len(special)]
		}
		if i%4 == 1 {
			dY[i] = special[(i/2+i/5)%len(special)]
		}
	}
	return z, dY
}

// checkReLUParity holds applyBatch and derivBatch at ReLU — whole
// vectors through the AVX2 kernel when selected, the tail through the
// Go leaf — to the Go leaf alone, element by element and bit for bit.
// A NaN must come out a NaN; which NaN is x86's choice of operand, not
// part of the contract.
func checkReLUParity[T float](t *testing.T, relu func(z, y []T), deriv func(dY, z, dz []T)) {
	t.Helper()
	rng := rand.New(rand.NewSource(151))
	same := func(what string, n int, got, want []T) {
		t.Helper()
		for i := range want {
			g, w := float64(got[i]), float64(want[i])
			if math.IsNaN(w) && math.IsNaN(g) {
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s, %d elements: [%d] = %x (%v), Go leaf %x (%v)", what, n, i,
					math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
	lengths := []int{32 * 48}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		z, dY := reluInputs[T](n, rng)
		// The slack behind each output shows a kernel that writes past
		// its n elements.
		const slack = 9
		got, want := make([]T, n+slack), make([]T, n+slack)
		applyBatch(ReLU, z, got[:n])
		relu(z, want[:n])
		same("forward", n, got, want)
		clear(got)
		derivBatch(ReLU, dY, z, nil, got[:n])
		deriv(dY, z, want[:n])
		same("derivative", n, got, want)
		for i := n; i < n+slack; i++ {
			if got[i] != 0 {
				t.Fatalf("%d elements: wrote past the end at [%d]", n, i)
			}
		}
	}
}

// TestReLUKernelParity pins the "Kernel contract" entry of the two
// elementwise ReLU kernels at both widths and on both kernel sets.
func TestReLUKernelParity(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		checkReLUParity(t, relu64, reluDeriv64)
		checkReLUParity(t, relu32, reluDeriv32)
	}
}

// refSeq is the sequential-order product as the contract words it: one
// output at a time, from the bias, ascending, multiply then add.
func refSeq(w, x, b []float64, in, out int) []float64 {
	z := make([]float64, out)
	for o := range z {
		sum := b[o]
		for i := 0; i < in; i++ {
			sum += w[o*in+i] * x[i]
		}
		z[o] = sum
	}
	return z
}

// TestSeqKernelParity pins the "Kernel contract" entry of the
// sequential-order product on both kernel sets: seqProduct, Forward and
// ForwardRows against refSeq, bit for bit, on every shape from 1×1 to
// 64×70 — every count of whole column blocks and trailing columns,
// every count of output groups, overlapped last groups and layers too
// narrow for the kernel. Each shape runs three fills: ordinary values;
// zeros of both signs, subnormals and magnitudes that overflow, dense;
// and NaNs and infinities, sparse, at positions that walk through every
// lane of w, x and b as the shapes go by.
func TestSeqKernelParity(t *testing.T) {
	negZero := math.Copysign(0, -1)
	finite := []float64{0, negZero, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1, -1}
	wild := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	const rows, slack = 2, 5
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		// Shapes draw their values from two pools at offsets that differ
		// from shape to shape: drawing 13 440 shapes fresh costs more
		// than checking them, tenfold so under -race.
		rng := rand.New(rand.NewSource(163))
		ordinary := make([]float64, 3*64*70)
		dense := make([]float64, len(ordinary))
		for i := range ordinary {
			ordinary[i], dense[i] = rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(3) == 0 {
				dense[i] = finite[rng.Intn(len(finite))]
			}
		}
		for in := 1; in <= 64; in++ {
			for out := 1; out <= 70; out++ {
				for fill := 0; fill < 3; fill++ {
					k := in*71 + out
					pool := ordinary
					if fill == 1 {
						pool = dense
					}
					vals := append([]float64(nil), pool[k:k+out*in+out+rows*in]...)
					w, b, x := vals[:out*in], vals[out*in:out*in+out], vals[out*in+out:]
					if fill == 2 {
						w[k%len(w)] = wild[k%3]
						b[(k/3)%len(b)] = wild[(k+1)%3]
						x[(k/5)%len(x)] = wild[(k+2)%3]
					}
					name := fmt.Sprintf("simd=%v in=%d out=%d fill=%d", simd, in, out, fill)

					var want []float64
					for r := 0; r < rows; r++ {
						want = append(want, refSeq(w, x[r*in:], b, in, out)...)
					}

					z := make([]float64, out+slack)
					seqProduct(w, x, b, z[:out], in, out)
					sameBitsNaN(t, name+" seqProduct", z[:out], want[:out])
					for _, v := range z[out:] {
						if v != 0 {
							t.Fatalf("%s: seqProduct wrote past its %d outputs", name, out)
						}
					}

					d := newLayer(in, out, Linear, w, b)
					sameBitsNaN(t, name+" one row", d.ForwardRows(x, 1), want[:out])
					sameBitsNaN(t, name+" ForwardRows", d.ForwardRows(x, rows), want)
				}
			}
		}
	}
}

// tanhSpecials are the inputs where math.Tanh changes form, with both
// float64 neighbours of each boundary, and the values it special-cases.
func tanhSpecials() []float64 {
	const small, big = 0.625, 0.5 * 8.8029691931113054295988e+01
	s := []float64{0, math.Inf(1), math.NaN(), 5e-324, 1e300, 1e-300, 1, 30}
	for _, v := range []float64{small, big} {
		s = append(s, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for _, v := range s {
		s = append(s, -v)
	}
	return s
}

// checkTanh holds tanhs64 over z — whole vectors through the AVX2
// kernel when selected, the tail through math.Tanh — to math.Tanh alone,
// bit for bit, NaNs included: a NaN leaves both as itself, quieted.
func checkTanh(t testing.TB, what string, z []float64) {
	t.Helper()
	const slack = 5
	y := make([]float64, len(z)+slack)
	tanhs64(z, y[:len(z)])
	for i, v := range z {
		if want := math.Tanh(v); math.Float64bits(y[i]) != math.Float64bits(want) {
			t.Fatalf("%s, %d elements: tanh(%x = %v) = %x (%v), math.Tanh %x (%v) — "+
				"toolchain changed math.Tanh or math.Exp: vector lanes and scalar tail no longer agree",
				what, len(z), math.Float64bits(v), v, math.Float64bits(y[i]), y[i], math.Float64bits(want), want)
		}
	}
	for _, v := range y[len(z):] {
		if v != 0 {
			t.Fatalf("%s: wrote past its %d elements", what, len(z))
		}
	}
}

// TestTanhKernelParity pins the "Kernel contract" entry of the tanh
// kernel on both kernel sets: the specials in every lane at every
// length from 0 to 17, then four generators — the rational range, the
// pre-activations a layer sees, the exponential range out to
// saturation, and raw bit patterns — a million values each (16 Ki each
// under -short).
func TestTanhKernelParity(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		specials := tanhSpecials()
		for n := 0; n <= 17; n++ {
			// Every rotation puts every special in every lane.
			for rot := range specials {
				z := make([]float64, n)
				for i := range z {
					z[i] = specials[(rot+i)%len(specials)]
				}
				checkTanh(t, fmt.Sprintf("simd=%v specials", simd), z)
			}
		}
		rng := rand.New(rand.NewSource(167))
		n := 1 << 20
		if testing.Short() {
			n = 1 << 14
		}
		for _, g := range []struct {
			name string
			gen  func() float64
		}{
			{"rational", func() float64 { return 2*rng.Float64() - 1 }},
			{"layer", func() float64 { return 4 * rng.NormFloat64() }},
			{"exponential", func() float64 { return 100*rng.Float64() - 50 }},
			{"bits", func() float64 { return math.Float64frombits(rng.Uint64()) }},
		} {
			z := make([]float64, n)
			for i := range z {
				z[i] = g.gen()
			}
			checkTanh(t, fmt.Sprintf("simd=%v %s", simd, g.name), z)
		}
	}
}

// FuzzTanhKernelParity is TestTanhKernelParity's search: any four bit
// patterns, one vector, against math.Tanh.
func FuzzTanhKernelParity(f *testing.F) {
	s := tanhSpecials()
	for i := 0; i+4 <= len(s); i += 4 {
		f.Add(math.Float64bits(s[i]), math.Float64bits(s[i+1]), math.Float64bits(s[i+2]), math.Float64bits(s[i+3]))
	}
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		checkTanh(t, "fuzz", []float64{
			math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d),
		})
	})
}

// TestTransposeParity holds transpose — whole 4×4 blocks through the
// AVX2 kernel when selected, the edges copied in Go — to the double
// loop, on every shape with an edge of every width and on the layers
// the workloads train.
func TestTransposeParity(t *testing.T) {
	shapes := [][2]int{{48, 48}, {104, 48}, {48, 114}}
	for in := 1; in <= 20; in++ {
		for out := 1; out <= 20; out++ {
			shapes = append(shapes, [2]int{in, out})
		}
	}
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		for _, s := range shapes {
			in, out := s[0], s[1]
			w := make([]float64, out*in)
			for i := range w {
				w[i] = float64(i + 1) // every element distinct, none zero
			}
			const slack = 5
			wt := make([]float64, in*out+slack)
			transpose(w, wt[:in*out], in, out)
			for o := 0; o < out; o++ {
				for i := 0; i < in; i++ {
					if wt[i*out+o] != w[o*in+i] {
						t.Fatalf("simd=%v %d×%d: wt[%d][%d] = %v, want w[%d][%d] = %v",
							simd, out, in, i, o, wt[i*out+o], o, i, w[o*in+i])
					}
				}
			}
			for _, v := range wt[in*out:] {
				if v != 0 {
					t.Fatalf("simd=%v %d×%d: wrote past the end", simd, out, in)
				}
			}
		}
	}
}

// TestKernelsConcurrent is what statelessness buys: the controller's
// shards and the figure pool run these kernels from many goroutines at
// once, each on its own network, and every result must carry the bits
// of a serial run. Under -race it also shows the kernels share nothing.
func TestKernelsConcurrent(t *testing.T) {
	const workers, rounds, rows = 8, 40, 5
	sizes := []int{12, 48, 48, 15}
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		net := MustMLP(sizes, ReLU, Tanh, rng)
		x := make([]float64, rows*sizes[0])
		var out []float64
		for round := 0; round < rounds; round++ {
			for i := range x {
				x[i] = 3 * rng.NormFloat64()
			}
			out = append(out, net.Forward(x[:sizes[0]])...)
			out = append(out, net.ForwardRows(x, rows)...)
			out = append(out, net.ForwardBatch(x, rows)...)
		}
		return out
	}
	want := make([][]float64, workers)
	for w := range want {
		want[w] = run(int64(w))
	}
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = run(int64(w))
		}()
	}
	wg.Wait()
	for w := range want {
		sameBits(t, fmt.Sprintf("worker %d", w), got[w], want[w])
	}
}
