package nn

import "math"

// This file is the minibatch fast path: ForwardBatch/BackwardBatch
// process a whole row-major [rows × dim] matrix per call with
// preallocated, layer-owned scratch buffers (zero allocations once
// warm) and two layer-granular kernels, rows4 and accumGrads. The scalar
// Forward/Backward path is untouched so single-state inference and
// gob checkpoints behave exactly as before; the batched path is free
// to reassociate floating-point sums for speed.

// dot computes the inner product of a and b (len(b) >= len(a)) with
// four accumulators. The scalar loop `sum += a[i]*b[i]` serializes on
// the add's floating-point latency; four independent chains keep the
// FMA pipeline busy, which is where most of the minibatch speedup
// comes from.
func dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
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

// dot4 computes the inner products of w against four input rows at
// once: the weight row is loaded once per element, and the eight
// accumulator chains (two per row) saturate both the FP latency and
// throughput limits of a scalar core.
func dot4(w, x0, x1, x2, x3 []float64) (r0, r1, r2, r3 float64) {
	n := len(w)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
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

// axpy computes y += alpha*x. The iterations are independent, so the
// plain loop already pipelines well.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// rows4 is the four-row product kernel under the forward and the
// input-gradient passes: for the four n-long rows of x and the m
// n-long rows of w it stores
//
//	z[r*m+o] = bias[o] + w[o*n:(o+1)*n] · x[r*n:(r+1)*n]
//
// (the plain product when bias is nil). One call covers a whole 4-row
// group of a layer: on AVX2+FMA the output loop, bias add and stores
// all run inside the register-tiled assembly; the fallback is the
// pure-Go dot4 loop. Either way each element follows the kernel
// contract in doc.go.
func rows4(w, x, bias, z []float64, n, m int) {
	w, x, z = w[:m*n], x[:4*n], z[:4*m]
	if useSIMD {
		var b *float64
		if bias != nil {
			b = &bias[:m][0]
		}
		rows4asm(&w[0], &x[0], b, &z[0], n, m)
		return
	}
	x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:]
	for o := 0; o < m; o++ {
		s0, s1, s2, s3 := dot4(w[o*n:(o+1)*n], x0, x1, x2, x3)
		if bias != nil {
			b := bias[o]
			s0, s1, s2, s3 = b+s0, b+s1, b+s2, b+s3
		}
		z[o], z[m+o], z[2*m+o], z[3*m+o] = s0, s1, s2, s3
	}
}

// accumGrads is the parameter-gradient kernel: over the first rows
// rows of dz ([rows × out]) and x ([rows × in]), in ascending row
// order and skipping exact zeros of dz (ReLU makes them common),
//
//	db[o] += dz[r*out+o]        dw[o*in+i] += dz[r*out+o] * x[r*in+i]
//
// One call covers a whole layer. On AVX2+FMA each column's non-zero
// rows are compacted into scratch (2*rows words, layer-owned because
// networks train concurrently) and the dw row tile stays in registers
// across them; the fallback is one pure-Go axpy per (row, column).
func accumGrads(dz, x, dw, db []float64, scratch []uint64, rows, in, out int) {
	dz, x, dw, db = dz[:rows*out], x[:rows*in], dw[:out*in], db[:out]
	if useSIMD {
		gradasm(&dz[0], &x[0], &dw[0], &db[0], &scratch[:2*rows][0], rows, in, out)
		return
	}
	for r := 0; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		for o, v := range dz[r*out : (r+1)*out] {
			if v == 0 {
				continue
			}
			db[o] += v
			axpy(v, xr, dw[o*in:(o+1)*in])
		}
	}
}

// applyBatch evaluates the activation elementwise with the branch
// hoisted out of the loop.
func applyBatch(a Activation, z, y []float64) {
	y = y[:len(z)]
	switch a {
	case ReLU:
		// 0.5*(v+|v|) is exactly max(0, v) and branchless: ReLU
		// pre-activations are unpredictable, so a compare here costs
		// a mispredict every other element.
		for i, v := range z {
			y[i] = 0.5 * (v + math.Abs(v))
		}
	case Tanh:
		for i, v := range z {
			y[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range z {
			y[i] = 1 / (1 + math.Exp(-v))
		}
	default:
		copy(y, z)
	}
}

// derivBatch computes dz = dY ⊙ act'(z, y) elementwise.
func derivBatch(a Activation, dY, z, y, dz []float64) {
	dz = dz[:len(dY)]
	switch a {
	case ReLU:
		// Branchless 1/0 step via Copysign. At exactly z == +0 this
		// passes the gradient where the scalar path drops it; the
		// subgradient at 0 is arbitrary and the case has measure zero.
		z = z[:len(dY)]
		for i, v := range z {
			dz[i] = dY[i] * (0.5 * (math.Copysign(1, v) + 1))
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

// grow returns buf resized to n, reallocating only when capacity is
// insufficient — the steady state (fixed minibatch size) never
// allocates.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// ForwardBatch computes y_r = act(W x_r + b) for rows row-major
// inputs, caching activations for BackwardBatch. The returned slice
// ([rows × Out], owned by the layer) is valid until the next
// ForwardBatch call.
func (d *Dense) ForwardBatch(x []float64, rows int) []float64 {
	if len(x) < rows*d.In {
		panic("nn: ForwardBatch input shorter than rows*In")
	}
	d.bx = grow(d.bx, rows*d.In)
	d.bz = grow(d.bz, rows*d.Out)
	d.by = grow(d.by, rows*d.Out)
	copy(d.bx, x[:rows*d.In])
	r := 0
	for ; r+4 <= rows; r += 4 {
		rows4(d.W, d.bx[r*d.In:], d.B, d.bz[r*d.Out:], d.In, d.Out)
	}
	for ; r < rows; r++ {
		xr := d.bx[r*d.In : (r+1)*d.In]
		zr := d.bz[r*d.Out : (r+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			zr[o] = d.B[o] + dot(d.W[o*d.In:(o+1)*d.In], xr)
		}
	}
	applyBatch(d.Act, d.bz, d.by)
	return d.by
}

// BackwardBatch consumes dL/dY for the rows of the preceding
// ForwardBatch, accumulates dW/dB over the whole minibatch, and
// returns dL/dX ([rows × In], owned by the layer).
func (d *Dense) BackwardBatch(dY []float64, rows int) []float64 {
	return d.backwardBatch(dY, rows, true, rows)
}

// backwardBatch is the shared backward kernel: parameter gradients
// accumulate from the first gradRows rows only (0 = none, rows = the
// whole minibatch), dX is computed for every row when needDX. The
// split is what lets the fused DDPG learn step push a regression
// half-batch and an action-gradient half-batch through one pass.
func (d *Dense) backwardBatch(dY []float64, rows int, needDX bool, gradRows int) []float64 {
	if len(dY) < rows*d.Out {
		panic("nn: BackwardBatch gradient shorter than rows*Out")
	}
	if gradRows > rows {
		gradRows = rows
	}
	d.bdz = grow(d.bdz, rows*d.Out)
	derivBatch(d.Act, dY[:rows*d.Out], d.bz, d.by, d.bdz)
	if gradRows > 0 {
		d.bnz = grow(d.bnz, 2*gradRows)
		accumGrads(d.bdz, d.bx, d.dW, d.dB, d.bnz, gradRows, d.In, d.Out)
	}
	if !needDX {
		return nil
	}
	// dX = dz × W, computed against a transposed weight copy so each
	// dX element is a contiguous dot product — the same rows4 product
	// as the forward pass — instead of a strided read-modify-write
	// accumulation.
	d.wt = grow(d.wt, d.In*d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		for i, w := range row {
			d.wt[i*d.Out+o] = w
		}
	}
	d.bdx = grow(d.bdx, rows*d.In)
	r := 0
	for ; r+4 <= rows; r += 4 {
		rows4(d.wt, d.bdz[r*d.Out:], nil, d.bdx[r*d.In:], d.Out, d.In)
	}
	for ; r < rows; r++ {
		dzr := d.bdz[r*d.Out : (r+1)*d.Out]
		dxr := d.bdx[r*d.In : (r+1)*d.In]
		for i := 0; i < d.In; i++ {
			dxr[i] = dot(dzr, d.wt[i*d.Out:(i+1)*d.Out])
		}
	}
	return d.bdx
}

// ForwardBatch runs the network over rows row-major inputs
// ([rows × InputDim]), returning [rows × OutputDim]. The result is
// owned by the last layer and valid until its next forward call.
func (n *Network) ForwardBatch(x []float64, rows int) []float64 {
	out := x
	for _, l := range n.layers {
		out = l.ForwardBatch(out, rows)
	}
	return out
}

// BackwardBatch propagates dL/dOutput ([rows × OutputDim]) for the
// rows of the preceding ForwardBatch through the network, summing
// parameter gradients over the minibatch, and returns dL/dInput
// ([rows × InputDim]).
func (n *Network) BackwardBatch(dOut []float64, rows int) []float64 {
	return n.backwardBatch(dOut, rows, true, rows)
}

// BackwardBatchParams is BackwardBatch for callers that only need
// parameter gradients: the first layer's input gradient — pure
// overhead in a critic or actor regression step — is skipped.
func (n *Network) BackwardBatchParams(dOut []float64, rows int) {
	n.backwardBatch(dOut, rows, false, rows)
}

// BackwardBatchInput propagates input gradients WITHOUT accumulating
// any parameter gradients — the DDPG actor update pushes dQ/da back
// through the critic and then throws the critic's own gradients
// away, so not computing them saves half the pass.
func (n *Network) BackwardBatchInput(dOut []float64, rows int) []float64 {
	return n.backwardBatch(dOut, rows, true, 0)
}

// BackwardBatchSplit propagates dL/dOutput for ALL rows of the
// preceding ForwardBatch but accumulates parameter gradients from the
// FIRST gradRows rows only, returning dL/dInput for every row. It is
// the fused DDPG critic pass: rows [0, gradRows) carry the critic
// regression (their parameter gradients are kept, per-row identical
// to a separate BackwardBatchParams call), rows [gradRows, rows)
// carry dQ/da probes whose input gradients flow to the actor (per-row
// identical to a separate BackwardBatchInput call). One pass replaces
// two, transposing each weight matrix once instead of twice.
func (n *Network) BackwardBatchSplit(dOut []float64, rows, gradRows int) []float64 {
	return n.backwardBatch(dOut, rows, true, gradRows)
}

func (n *Network) backwardBatch(dOut []float64, rows int, needInputDX bool, gradRows int) []float64 {
	d := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		needDX := i > 0 || needInputDX
		d = n.layers[i].backwardBatch(d, rows, needDX, gradRows)
	}
	return d
}
