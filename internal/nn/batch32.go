package nn

import (
	"errors"
	"math"
)

var (
	errF32Tau      = errors.New("nn: tau must be in [0,1]")
	errF32Topology = errors.New("nn: topology mismatch")
)

// This file is the float32 mirror of the minibatch fast path in
// batch.go: the same ForwardBatch/BackwardBatch structure over
// row-major matrices, computed in single precision. Halving the
// element size halves memory traffic and doubles the AVX2 vector
// width (8 lanes per YMM instead of 4), which is where the learn-step
// speedup comes from — the f64 path's profile is dominated by the dot
// kernels.
//
// The f32 path is an explicit opt-in: EnableF32 snapshots the f64
// parameters into f32 mirrors, the F32 passes and optimizer steps
// then treat the mirrors as the authoritative weights, and FlushF32
// writes them back to the f64 side for serialization and scalar
// inference. Nothing on the f64 path reads or writes the mirrors, so
// enabling f32 on one network cannot perturb the deterministic f64
// figure path of another. Like the f64 batch path, all scratch is
// layer-owned and lazily sized, so the steady state allocates
// nothing.

// dotF32 is the four-accumulator f32 inner product (see dot).
func dotF32(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot4F32 computes the inner products of w against four input rows at
// once (see dot4).
func dot4F32(w, x0, x1, x2, x3 []float32) (r0, r1, r2, r3 float32) {
	n := len(w)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		w0, w1 := w[i], w[i+1]
		a0 += w0 * x0[i]
		b0 += w1 * x0[i+1]
		a1 += w0 * x1[i]
		b1 += w1 * x1[i+1]
		a2 += w0 * x2[i]
		b2 += w1 * x2[i+1]
		a3 += w0 * x3[i]
		b3 += w1 * x3[i+1]
	}
	if i < n {
		w0 := w[i]
		a0 += w0 * x0[i]
		a1 += w0 * x1[i]
		a2 += w0 * x2[i]
		a3 += w0 * x3[i]
	}
	return a0 + b0, a1 + b1, a2 + b2, a3 + b3
}

// axpyF32 computes y += alpha*x.
func axpyF32(alpha float32, x, y []float32) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// rows4F32 is the float32 rows4 (8 lanes per vector on AVX2+FMA).
func rows4F32(w, x, bias, z []float32, n, m int) {
	w, x, z = w[:m*n], x[:4*n], z[:4*m]
	if useSIMD {
		var b *float32
		if bias != nil {
			b = &bias[:m][0]
		}
		rows4asmf32(&w[0], &x[0], b, &z[0], n, m)
		return
	}
	x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:]
	for o := 0; o < m; o++ {
		s0, s1, s2, s3 := dot4F32(w[o*n:(o+1)*n], x0, x1, x2, x3)
		if bias != nil {
			b := bias[o]
			s0, s1, s2, s3 = b+s0, b+s1, b+s2, b+s3
		}
		z[o], z[m+o], z[2*m+o], z[3*m+o] = s0, s1, s2, s3
	}
}

// accumGradsF32 is the float32 accumGrads.
func accumGradsF32(dz, x, dw, db []float32, scratch []uint64, rows, in, out int) {
	dz, x, dw, db = dz[:rows*out], x[:rows*in], dw[:out*in], db[:out]
	if useSIMD {
		gradasmf32(&dz[0], &x[0], &dw[0], &db[0], &scratch[:2*rows][0], rows, in, out)
		return
	}
	for r := 0; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		for o, v := range dz[r*out : (r+1)*out] {
			if v == 0 {
				continue
			}
			db[o] += v
			axpyF32(v, xr, dw[o*in:(o+1)*in])
		}
	}
}

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

// applyBatchF32 evaluates the activation elementwise. Tanh uses the
// rational tanh32; Sigmoid goes through the float64 math library
// (unused by the GreenNFV networks, so not worth a fast path).
// Exactness against the f64 activations is not part of the f32
// contract.
func applyBatchF32(a Activation, z, y []float32) {
	y = y[:len(z)]
	switch a {
	case ReLU:
		for i, v := range z {
			y[i] = 0.5 * (v + abs32(v))
		}
	case Tanh:
		for i, v := range z {
			y[i] = tanh32(v)
		}
	case Sigmoid:
		for i, v := range z {
			y[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	default:
		copy(y, z)
	}
}

// derivBatchF32 computes dz = dY ⊙ act'(z, y) elementwise.
func derivBatchF32(a Activation, dY, z, y, dz []float32) {
	dz = dz[:len(dY)]
	switch a {
	case ReLU:
		// Branchless 1/0 step via the sign bit, mirroring the f64
		// path's Copysign trick (ReLU pre-activations mispredict).
		z = z[:len(dY)]
		for i, v := range z {
			sign := math.Float32frombits(0x3F800000 | math.Float32bits(v)&0x80000000)
			dz[i] = dY[i] * (0.5 * (sign + 1))
		}
	case Tanh:
		y = y[:len(dY)]
		for i, yv := range y {
			dz[i] = dY[i] * (1 - yv*yv)
		}
	case Sigmoid:
		y = y[:len(dY)]
		for i, yv := range y {
			dz[i] = dY[i] * yv * (1 - yv)
		}
	default:
		copy(dz, dY)
	}
}

// EnableF32 allocates (once) and refreshes the float32 parameter
// mirrors from the f64 weights. Call it before the first F32 pass and
// after any f64-side parameter change (CopyParamsFrom, UnmarshalBinary)
// while the f32 path is in use.
func (n *Network) EnableF32() {
	for _, l := range n.layers {
		if l.w32 == nil {
			l.w32 = make([]float32, len(l.W))
			l.b32 = make([]float32, len(l.B))
			l.dW32 = make([]float32, len(l.dW))
			l.dB32 = make([]float32, len(l.dB))
		}
		for i, w := range l.W {
			l.w32[i] = float32(w)
		}
		for i, b := range l.B {
			l.b32[i] = float32(b)
		}
	}
}

// FlushF32 writes the float32 parameter mirrors back into the f64
// weights, making the f32 path's training visible to MarshalBinary
// and the scalar f64 Forward. No-op if EnableF32 was never called.
func (n *Network) FlushF32() {
	for _, l := range n.layers {
		if l.w32 == nil {
			continue
		}
		for i, w := range l.w32 {
			l.W[i] = float64(w)
		}
		for i, b := range l.b32 {
			l.B[i] = float64(b)
		}
	}
}

// Float32Enabled reports whether the f32 mirrors exist.
func (n *Network) Float32Enabled() bool {
	return len(n.layers) > 0 && n.layers[0].w32 != nil
}

// ForwardBatchF32 is the float32 ForwardBatch: y_r = act(W x_r + b)
// over the f32 parameter mirrors, caching activations for the F32
// backward passes. The returned slice ([rows × Out], owned by the
// layer) is valid until the next call. EnableF32 must have run.
func (d *Dense) ForwardBatchF32(x []float32, rows int) []float32 {
	if len(x) < rows*d.In {
		panic("nn: ForwardBatchF32 input shorter than rows*In")
	}
	d.bx32 = grow(d.bx32, rows*d.In)
	d.bz32 = grow(d.bz32, rows*d.Out)
	d.by32 = grow(d.by32, rows*d.Out)
	copy(d.bx32, x[:rows*d.In])
	r := 0
	for ; r+4 <= rows; r += 4 {
		rows4F32(d.w32, d.bx32[r*d.In:], d.b32, d.bz32[r*d.Out:], d.In, d.Out)
	}
	for ; r < rows; r++ {
		xr := d.bx32[r*d.In : (r+1)*d.In]
		zr := d.bz32[r*d.Out : (r+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			zr[o] = d.b32[o] + dotF32(d.w32[o*d.In:(o+1)*d.In], xr)
		}
	}
	applyBatchF32(d.Act, d.bz32, d.by32)
	return d.by32
}

// backwardBatchF32 is the float32 backwardBatch: parameter gradients
// accumulate (into dW32/dB32) from the first gradRows rows only, dX
// is computed for every row when needDX.
func (d *Dense) backwardBatchF32(dY []float32, rows int, needDX bool, gradRows int) []float32 {
	if len(dY) < rows*d.Out {
		panic("nn: BackwardBatchF32 gradient shorter than rows*Out")
	}
	if gradRows > rows {
		gradRows = rows
	}
	d.bdz32 = grow(d.bdz32, rows*d.Out)
	derivBatchF32(d.Act, dY[:rows*d.Out], d.bz32, d.by32, d.bdz32)
	if gradRows > 0 {
		d.bnz = grow(d.bnz, 2*gradRows)
		accumGradsF32(d.bdz32, d.bx32, d.dW32, d.dB32, d.bnz, gradRows, d.In, d.Out)
	}
	if !needDX {
		return nil
	}
	// dX = dz × W against a transposed weight copy, same as the f64
	// path: contiguous dot products instead of strided accumulation.
	d.wt32 = grow(d.wt32, d.In*d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.w32[o*d.In : (o+1)*d.In]
		for i, w := range row {
			d.wt32[i*d.Out+o] = w
		}
	}
	d.bdx32 = grow(d.bdx32, rows*d.In)
	r := 0
	for ; r+4 <= rows; r += 4 {
		rows4F32(d.wt32, d.bdz32[r*d.Out:], nil, d.bdx32[r*d.In:], d.Out, d.In)
	}
	for ; r < rows; r++ {
		dzr := d.bdz32[r*d.Out : (r+1)*d.Out]
		dxr := d.bdx32[r*d.In : (r+1)*d.In]
		for i := 0; i < d.In; i++ {
			dxr[i] = dotF32(dzr, d.wt32[i*d.Out:(i+1)*d.Out])
		}
	}
	return d.bdx32
}

// ForwardBatchF32 runs the network's float32 path over rows row-major
// inputs ([rows × InputDim]), returning [rows × OutputDim] owned by
// the last layer.
func (n *Network) ForwardBatchF32(x []float32, rows int) []float32 {
	out := x
	for _, l := range n.layers {
		out = l.ForwardBatchF32(out, rows)
	}
	return out
}

// BackwardBatchF32 propagates dL/dOutput through the f32 path,
// summing parameter gradients over the minibatch, and returns
// dL/dInput.
func (n *Network) BackwardBatchF32(dOut []float32, rows int) []float32 {
	return n.backwardBatchF32(dOut, rows, true, rows)
}

// BackwardBatchParamsF32 is BackwardBatchF32 for callers that only
// need parameter gradients (the first layer's input gradient is
// skipped).
func (n *Network) BackwardBatchParamsF32(dOut []float32, rows int) {
	n.backwardBatchF32(dOut, rows, false, rows)
}

// BackwardBatchInputF32 propagates input gradients WITHOUT
// accumulating any parameter gradients (the DDPG dQ/da probe).
func (n *Network) BackwardBatchInputF32(dOut []float32, rows int) []float32 {
	return n.backwardBatchF32(dOut, rows, true, 0)
}

// BackwardBatchSplitF32 is the float32 BackwardBatchSplit: input
// gradients for every row, parameter gradients from the first
// gradRows rows only — the fused DDPG critic pass.
func (n *Network) BackwardBatchSplitF32(dOut []float32, rows, gradRows int) []float32 {
	return n.backwardBatchF32(dOut, rows, true, gradRows)
}

func (n *Network) backwardBatchF32(dOut []float32, rows int, needInputDX bool, gradRows int) []float32 {
	d := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		needDX := i > 0 || needInputDX
		d = n.layers[i].backwardBatchF32(d, rows, needDX, gradRows)
	}
	return d
}

// ZeroGradF32 clears the accumulated float32 gradients.
func (n *Network) ZeroGradF32() {
	for _, l := range n.layers {
		for i := range l.dW32 {
			l.dW32[i] = 0
		}
		for i := range l.dB32 {
			l.dB32[i] = 0
		}
	}
}

// ScaleGradF32 multiplies all accumulated float32 gradients by f.
func (n *Network) ScaleGradF32(f float32) {
	for _, l := range n.layers {
		if useSIMD {
			scaleasmf32(f, &l.dW32[0], len(l.dW32))
			scaleasmf32(f, &l.dB32[0], len(l.dB32))
			continue
		}
		for i := range l.dW32 {
			l.dW32[i] *= f
		}
		for i := range l.dB32 {
			l.dB32[i] *= f
		}
	}
}

// ParamSlicesF32 exposes the float32 parameter mirrors (weights then
// biases, layer by layer). EnableF32 must have run.
func (n *Network) ParamSlicesF32() [][]float32 {
	if n.pSlices32 == nil {
		for _, l := range n.layers {
			n.pSlices32 = append(n.pSlices32, l.w32, l.b32)
		}
	}
	return n.pSlices32
}

// GradSlicesF32 exposes the float32 gradient buffers in ParamSlicesF32
// order.
func (n *Network) GradSlicesF32() [][]float32 {
	if n.gSlices32 == nil {
		for _, l := range n.layers {
			n.gSlices32 = append(n.gSlices32, l.dW32, l.dB32)
		}
	}
	return n.gSlices32
}

// SoftUpdateF32 moves this network's float32 parameters toward src's:
// θ ← τ·θ_src + (1−τ)·θ — the DDPG target update on the f32 path.
// Both networks must have EnableF32 applied.
func (n *Network) SoftUpdateF32(src *Network, tau float32) error {
	if tau < 0 || tau > 1 {
		return errF32Tau
	}
	dst := n.ParamSlicesF32()
	from := src.ParamSlicesF32()
	if len(dst) != len(from) {
		return errF32Topology
	}
	for i := range dst {
		if len(dst[i]) != len(from[i]) {
			return errF32Topology
		}
		if useSIMD && len(dst[i]) > 0 {
			axpbyasmf32(tau, &from[i][0], &dst[i][0], len(dst[i]))
			continue
		}
		for j := range dst[i] {
			dst[i][j] = tau*from[i][j] + (1-tau)*dst[i][j]
		}
	}
	return nil
}
