package nn

import "math"

// This file is what is genuinely single-precision: the elementwise
// leaves applyBatch/derivBatch pick for float32 slices, and the
// parameter mirrors the float32 instantiation of the batch engine
// (batch.go) runs on. Halving the element size halves memory traffic
// and doubles the AVX2 vector width (8 lanes per YMM instead of 4),
// which is where the learn-step speedup comes from — the f64 path's
// profile is dominated by the layer kernels. The snapshot/flush
// contract of the mirrors is in doc.go ("Float32 fast path").

// abs32 is branch-free |v| for float32.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// tanh32 is a single-precision tanh: the classic 13/6-degree rational
// approximation (numerator odd in x, denominator even), accurate to a
// few float32 ulps on the non-saturated range and clamped to ±1
// beyond it. The f64 path's math.Tanh was ~15% of the f32 learn-step
// profile; this costs one divide and a dozen FMAs.
func tanh32(x float32) float32 {
	const bound = 7.90531110763549805 // |tanh| rounds to 1 in float32 beyond this
	if x > bound {
		return 1
	}
	if x < -bound {
		return -1
	}
	const (
		a1  = 4.89352455891786e-03
		a3  = 6.37261928875436e-04
		a5  = 1.48572235717979e-05
		a7  = 5.12229709037114e-08
		a9  = -8.60467152213735e-11
		a11 = 2.00018790482477e-13
		a13 = -2.76076847742355e-16
		b0  = 4.89352518554385e-03
		b2  = 2.26843463243900e-03
		b4  = 1.18534705686654e-04
		b6  = 1.19825839466702e-06
	)
	x2 := x * x
	p := float32(a13)
	p = p*x2 + a11
	p = p*x2 + a9
	p = p*x2 + a7
	p = p*x2 + a5
	p = p*x2 + a3
	p = p*x2 + a1
	p *= x
	q := float32(b6)
	q = q*x2 + b4
	q = q*x2 + b2
	q = q*x2 + b0
	return p / q
}

// relu32 is ReLU at float32: 0.5*(v+|v|), as relu64.
func relu32(z, y []float32) {
	for i, v := range z {
		y[i] = 0.5 * (v + abs32(v))
	}
}

// tanhs32 is Tanh through the rational tanh32. Exactness against the
// f64 activations is not part of the f32 contract.
func tanhs32(z, y []float32) {
	for i, v := range z {
		y[i] = tanh32(v)
	}
}

// reluDeriv32 is dz = dY ⊙ step(z) at float32: the branchless 1/0
// step via the sign bit, mirroring reluDeriv64's Copysign trick (ReLU
// pre-activations mispredict).
func reluDeriv32(dY, z, dz []float32) {
	for i, v := range z {
		sign := math.Float32frombits(0x3F800000 | math.Float32bits(v)&0x80000000)
		dz[i] = dY[i] * (0.5 * (sign + 1))
	}
}

// EnableF32 allocates (once) and refreshes the float32 parameter
// mirrors from the f64 weights. Float32 gradients, like float64 ones,
// are allocated by the first pass that writes them. Call it before the
// first float32 pass and after any f64-side parameter change
// (LoadParams) while the f32 path is in use.
func (n *Network) EnableF32() {
	for _, l := range n.layers {
		p := &l.f32
		if p.w == nil {
			p.w = make([]float32, len(l.W))
			p.b = make([]float32, len(l.B))
		}
		for i, w := range l.W {
			p.w[i] = float32(w)
		}
		for i, b := range l.B {
			p.b[i] = float32(b)
		}
	}
}

// FlushF32 writes the float32 parameter mirrors back into the f64
// weights, making the f32 path's training visible to ParamFrame and
// the float64 forward passes. No-op if EnableF32 was never called.
func (n *Network) FlushF32() {
	for _, l := range n.layers {
		if l.f32.w == nil {
			continue
		}
		for i, w := range l.f32.w {
			l.W[i] = float64(w)
		}
		for i, b := range l.f32.b {
			l.B[i] = float64(b)
		}
	}
}

// ForwardBatchF32 is the float32 ForwardBatch.
func (n *Network) ForwardBatchF32(x []float32, rows int) []float32 {
	return ForwardBatch(n, x, rows)
}

// BackwardBatchF32 is the float32 BackwardBatch.
func (n *Network) BackwardBatchF32(dOut []float32, rows int) []float32 {
	return backwardBatch(n, dOut, rows, rows, 0, 0)
}
