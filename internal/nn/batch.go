package nn

import (
	"math"
	"unsafe"
)

// This file is the minibatch engine, written once over float32 |
// float64: ForwardBatch/BackwardBatch process a whole row-major
// [rows × dim] matrix per call with preallocated, layer-owned scratch
// buffers (zero allocations once warm) and two layer-granular kernels,
// rows4 and accumGrads, which are free to reassociate floating-point
// sums for speed. ForwardRows (rows.go; Forward is its one-row case)
// does not: its product (seqProduct, below) keeps the sequential order
// on every path, and it shares this file's activation leaves. Each
// element type is its own instantiation of the same bodies, calling
// its own assembly symbols; what differs between the two beyond the
// type is listed in doc.go ("Float32 fast path").

// KernelSet names the kernel set the CPU probe selected for this
// process: "avx2+fma" or "go". The two compute different last bits in
// the batch passes (doc.go, "Kernel contract") and differ severalfold
// in speed, so daemons log it at start and the serving controller
// exports it.
func KernelSet() string {
	if useSIMD {
		return "avx2+fma"
	}
	return "go"
}

// float is the element type of a batch pass.
type float interface{ float32 | float64 }

// precision is a layer's batch state at one element type: parameters,
// accumulated gradients, and the batch caches and scratch, lazily
// sized to the largest minibatch seen (wt is the transposed weight
// copy the backward pass uses for input gradients). Dense holds one
// per element type.
type precision[T float] struct {
	w, b, dw, db             []T
	bx, bz, by, bdz, bdx, wt []T
}

// dropCaches lets go of the backward pass's scratch and, unless
// keepForward, the activation caches.
func (p *precision[T]) dropCaches(keepForward bool) {
	p.bdz, p.bdx, p.wt = nil, nil, nil
	if !keepForward {
		p.bx, p.bz, p.by = nil, nil, nil
	}
}

// DropCaches releases the batch scratch of every layer at both element
// types: the backward pass's (the output gradients, the input
// gradients, the transposed weights and the gradient kernel's
// compaction scratch) and, unless keepForward, the activation caches
// every forward pass fills. Parameters, gradients and the float32
// mirrors stay, and no pass computes a different bit afterwards: the
// next pass regrows what it needs, and a backward pass needs a forward
// pass before it, as on a new network. It allocates nothing.
func (n *Network) DropCaches(keepForward bool) {
	for _, l := range n.layers {
		l.f64.dropCaches(keepForward)
		l.f32.dropCaches(keepForward)
		l.bnz = nil
	}
}

// at returns the layer's batch state at element type T.
func at[T float](d *Dense) *precision[T] {
	if p, ok := any(&d.f64).(*precision[T]); ok {
		return p
	}
	return any(&d.f32).(*precision[T])
}

// wide reports whether T is float64. It is a constant of each
// instantiation, so a branch on it in front of the assembly calls
// costs nothing and allocates nothing.
func wide[T float]() bool {
	var z T
	return unsafe.Sizeof(z) == 8
}

// p64 and p32 reinterpret a *T for the assembly kernel of T's own
// width; callers branch on wide first.
func p64[T float](p *T) *float64 { return (*float64)(unsafe.Pointer(p)) }
func p32[T float](p *T) *float32 { return (*float32)(unsafe.Pointer(p)) }

// dot computes the inner product of a and b (len(b) >= len(a)) with
// four accumulators. The scalar loop `sum += a[i]*b[i]` serializes on
// the add's floating-point latency; four independent chains keep the
// FMA pipeline busy, which is where most of the minibatch speedup
// comes from.
func dot[T float](a, b []T) T {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 T
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
func dot4[T float](w, x0, x1, x2, x3 []T) (r0, r1, r2, r3 T) {
	n := len(w)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 T
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
func axpy[T float](alpha T, x, y []T) {
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
// all run inside the register-tiled assembly (4 lanes per vector at
// float64, 8 at float32); the fallback is the pure-Go dot4 loop.
// Either way each float64 element follows the kernel contract in
// doc.go.
func rows4[T float](w, x, bias, z []T, n, m int) {
	w, x, z = w[:m*n], x[:4*n], z[:4*m]
	if useSIMD {
		var b *T
		if bias != nil {
			b = &bias[:m][0]
		}
		if wide[T]() {
			rows4asm(p64(&w[0]), p64(&x[0]), p64(b), p64(&z[0]), n, m)
		} else {
			rows4asmf32(p32(&w[0]), p32(&x[0]), p32(b), p32(&z[0]), n, m)
		}
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

// product is rows4 over every row of x ([rows × n]): one kernel call
// per full 4-row group, then the rows%4 remainder rows by the pure-Go
// dot on every CPU (so a row's bits depend on whether it falls in a
// full group; see doc.go).
func product[T float](w, x, bias, z []T, rows, n, m int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		rows4(w, x[r*n:], bias, z[r*m:], n, m)
	}
	for ; r < rows; r++ {
		xr := x[r*n : (r+1)*n]
		zr := z[r*m : (r+1)*m]
		for o := range zr {
			zr[o] = dot(w[o*n:(o+1)*n], xr)
			if bias != nil {
				zr[o] = bias[o] + zr[o]
			}
		}
	}
}

// seqProduct is the sequential-order product under ForwardRows, the
// pass whose rows must not depend on how they are batched:
//
//	z[o] = b[o] + Σ_i w[o*in+i]·x[i]
//
// summed in ascending i starting from the bias, every step a rounded
// multiply then a rounded add — the loop below, which is the pure-Go
// path, the path of layers with fewer than four outputs, and the
// tests' reference. On AVX2 four outputs share a vector, one per lane,
// each lane walking its own row in that order (doc.go, "Kernel
// contract"), so the two paths agree bit for bit. The kernel keeps no
// state — in particular no transposed copy of w that a parameter write
// would have to invalidate.
func seqProduct(w, x, b, z []float64, in, out int) {
	w, x, b, z = w[:out*in], x[:in], b[:out], z[:out]
	if useSIMD && out >= 4 && in > 0 {
		seqasm(&w[0], &x[0], &b[0], &z[0], in, out)
		return
	}
	for o := range z {
		sum := b[o]
		row := w[o*in : (o+1)*in]
		for i, xi := range x {
			sum += row[i] * xi
		}
		z[o] = sum
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
func accumGrads[T float](dz, x, dw, db []T, scratch []uint64, rows, in, out int) {
	dz, x, dw, db = dz[:rows*out], x[:rows*in], dw[:out*in], db[:out]
	if useSIMD {
		nz := &scratch[:2*rows][0]
		if wide[T]() {
			gradasm(p64(&dz[0]), p64(&x[0]), p64(&dw[0]), p64(&db[0]), nz, rows, in, out)
		} else {
			gradasmf32(p32(&dz[0]), p32(&x[0]), p32(&dw[0]), p32(&db[0]), nz, rows, in, out)
		}
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

// scale computes x *= f and returns the sum of the squares of the
// scaled elements, accumulated in float64 in an order of the kernel's
// choosing: sixteen FMA lane chains on AVX2 (scaleasm/scaleasmf32, the
// float32 lanes widened before their FMA), ascending multiply-then-add
// here. AdamStep's clip-norm skip is written for any order.
func scale[T float](f T, x []T) float64 {
	if useSIMD && len(x) > 0 {
		if wide[T]() {
			return scaleasm(float64(f), p64(&x[0]), len(x))
		}
		return scaleasmf32(float32(f), p32(&x[0]), len(x))
	}
	var sq float64
	for i := range x {
		x[i] *= f
		sq += float64(x[i]) * float64(x[i])
	}
	return sq
}

// lanes is how many elements of T one 32-byte vector holds.
func lanes[T float]() int {
	var z T
	return 32 / int(unsafe.Sizeof(z))
}

// reluVec runs the elementwise ReLU kernel over the whole vectors of z
// and reports how many elements that covered — none without AVX2. The
// caller finishes the rest with the Go leaf: the two compute the same
// bits (doc.go, "Kernel contract"), so where the split falls does not
// show.
func reluVec[T float](z, y []T) int {
	n := len(z) &^ (lanes[T]() - 1)
	if !useSIMD || n == 0 {
		return 0
	}
	if wide[T]() {
		reluasm(p64(&z[0]), p64(&y[0]), n)
	} else {
		reluasmf32(p32(&z[0]), p32(&y[0]), n)
	}
	return n
}

// reluDerivVec is reluVec for dz = dY ⊙ step(z).
func reluDerivVec[T float](dY, z, dz []T) int {
	n := len(z) &^ (lanes[T]() - 1)
	if !useSIMD || n == 0 {
		return 0
	}
	if wide[T]() {
		reluderivasm(p64(&dY[0]), p64(&z[0]), p64(&dz[0]), n)
	} else {
		reluderivasmf32(p32(&dY[0]), p32(&z[0]), p32(&dz[0]), n)
	}
	return n
}

// applyBatch evaluates the activation elementwise with the branch
// hoisted out of the loop; every forward pass applies its activation
// here. ReLU and Tanh are the leaves that differ
// per element type (math.Abs and math.Tanh here, abs32 and tanh32 in
// batch32.go); the pair is chosen once per layer call, on the slice
// type. ReLU's whole vectors go to the AVX2 kernels reluasm/reluasmf32
// first, and float64 Tanh's to tanhasm (inside tanhs64). Sigmoid
// goes through the float64 math library at either type (unused by the
// GreenNFV networks, so not worth a float32 leaf).
func applyBatch[T float](a Activation, z, y []T) {
	y = y[:len(z)]
	switch a {
	case ReLU:
		n := reluVec(z, y)
		switch z := any(z[n:]).(type) {
		case []float64:
			relu64(z, any(y[n:]).([]float64))
		case []float32:
			relu32(z, any(y[n:]).([]float32))
		}
	case Tanh:
		switch z := any(z).(type) {
		case []float64:
			tanhs64(z, any(y).([]float64))
		case []float32:
			tanhs32(z, any(y).([]float32))
		}
	case Sigmoid:
		for i, v := range z {
			y[i] = T(1 / (1 + math.Exp(-float64(v))))
		}
	default:
		copy(y, z)
	}
}

// relu64 is ReLU at float64: 0.5*(v+|v|) is exactly max(0, v) and
// branchless — ReLU pre-activations are unpredictable, so a compare
// here costs a mispredict every other element.
func relu64(z, y []float64) {
	for i, v := range z {
		y[i] = 0.5 * (v + math.Abs(v))
	}
}

// tanhs64 is Tanh at float64. The AVX2 kernel takes the whole vectors
// and math.Tanh the rest; the kernel IS math.Tanh, operation for
// operation (doc.go, "Kernel contract"), so the split does not show.
func tanhs64(z, y []float64) {
	n := 0
	if useSIMD && len(z) >= 4 {
		n = len(z) &^ 3
		tanhasm(&z[0], &y[0], n)
	}
	for i, v := range z[n:] {
		y[n+i] = math.Tanh(v)
	}
}

// reluDeriv64 is dz = dY ⊙ step(z) at float64, the step a branchless
// 1/0 via Copysign. At exactly z == +0 this passes the gradient where
// the tests' per-sample reference (backward_test.go) drops it; the subgradient at 0 is arbitrary and the
// case has measure zero.
func reluDeriv64(dY, z, dz []float64) {
	for i, v := range z {
		dz[i] = dY[i] * (0.5 * (math.Copysign(1, v) + 1))
	}
}

// derivBatch computes dz = dY ⊙ act'(z, y) elementwise; the ReLU step
// is the one leaf that differs per element type.
func derivBatch[T float](a Activation, dY, z, y, dz []T) {
	dz = dz[:len(dY)]
	switch a {
	case ReLU:
		z = z[:len(dY)]
		n := reluDerivVec(dY, z, dz)
		switch z := any(z[n:]).(type) {
		case []float64:
			reluDeriv64(any(dY[n:]).([]float64), z, any(dz[n:]).([]float64))
		case []float32:
			reluDeriv32(any(dY[n:]).([]float32), z, any(dz[n:]).([]float32))
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

// Grow returns buf resized to n elements, reallocating only when its
// capacity is insufficient; the contents are scratch. Every batch
// buffer — the layers' here, the update's matrices in ddpg — is sized
// through it, so the steady state (fixed minibatch size) never
// allocates.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// transpose writes the out × in matrix w into wt transposed:
// wt[i*out+o] = w[o*in+i]. At float64 on AVX2 the whole 4×4 blocks go
// through registers (transposeasm) and the loop below copies the edges;
// float32 keeps the loop. Movement only, so there is nothing to round.
func transpose[T float](w, wt []T, in, out int) {
	w, wt = w[:out*in], wt[:in*out]
	in4, out4 := 0, 0 // the block the kernel covered
	if useSIMD && wide[T]() && in >= 4 && out >= 4 {
		in4, out4 = in&^3, out&^3
		transposeasm(p64(&w[0]), p64(&wt[0]), in, out)
	}
	for o := 0; o < out; o++ {
		i := 0
		if o < out4 {
			i = in4
		}
		for ; i < in; i++ {
			wt[i*out+o] = w[o*in+i]
		}
	}
}

// forward computes y_r = act(W x_r + b) for rows row-major inputs,
// caching activations for backward. The returned slice ([rows × Out],
// owned by the layer) is valid until the next forward call at this
// element type.
func (p *precision[T]) forward(d *Dense, x []T, rows int) []T {
	if len(x) < rows*d.In {
		panic("nn: ForwardBatch input shorter than rows*In")
	}
	p.bx = Grow(p.bx, rows*d.In)
	p.bz = Grow(p.bz, rows*d.Out)
	p.by = Grow(p.by, rows*d.Out)
	copy(p.bx, x[:rows*d.In])
	product(p.w, p.bx, p.b, p.bz, rows, d.In, d.Out)
	applyBatch(d.Act, p.bz, p.by)
	return p.by
}

// backward consumes dL/dY for the rows of the preceding forward:
// parameter gradients accumulate from the first gradRows rows only
// (0 = none, rows = the whole minibatch), and dX is computed for rows
// [row0, rows) and input columns [col0, In) only — none when row0 is
// rows — into a [(rows−row0) × (In−col0)] matrix owned by the layer.
// The gradRows split is what lets the fused DDPG learn step push a
// regression half-batch and an action-gradient half-batch through one
// pass; the dX window is what lets the critic's first layer skip the
// state columns and the regression rows, whose input gradients nobody
// reads. A row's bits depend on whether it falls in a full 4-row group
// counted from row0 (doc.go), so a window equals the matching slice of
// the whole dX when row0 is a multiple of four.
func (p *precision[T]) backward(d *Dense, dY []T, rows, gradRows, row0, col0 int) []T {
	if len(dY) < rows*d.Out {
		panic("nn: BackwardBatch gradient shorter than rows*Out")
	}
	if gradRows > rows {
		gradRows = rows
	}
	p.bdz = Grow(p.bdz, rows*d.Out)
	derivBatch(d.Act, dY[:rows*d.Out], p.bz, p.by, p.bdz)
	if gradRows > 0 {
		d.bnz = Grow(d.bnz, 2*gradRows)
		accumGrads(p.bdz, p.bx, p.dw, p.db, d.bnz, gradRows, d.In, d.Out)
	}
	if row0 >= rows {
		return nil
	}
	// dX = dz × W, computed against a transposed weight copy so each
	// dX element is a contiguous dot product — the same rows4 product
	// as the forward pass — instead of a strided read-modify-write
	// accumulation; the window's columns are a contiguous block of its
	// rows. The copy is remade every pass (transposeasm's 4×4 register
	// blocks at float64), never cached across a weight write.
	p.wt = Grow(p.wt, d.In*d.Out)
	transpose(p.w, p.wt, d.In, d.Out)
	cols := d.In - col0
	p.bdx = Grow(p.bdx, (rows-row0)*cols)
	product(p.wt[col0*d.Out:], p.bdz[row0*d.Out:], nil, p.bdx, rows-row0, d.Out, cols)
	return p.bdx
}

// The network-level passes are generic functions because a method
// cannot take a type parameter: ddpg's one update body calls them at
// either element type, and the methods below them are the
// instantiations other callers use. The float32 ones run on the
// parameter mirrors, so EnableF32 (batch32.go) must have run.

// ForwardBatch runs the network over rows row-major inputs
// ([rows × InputDim]), returning [rows × OutputDim]. The result is
// owned by the last layer and valid until its next forward call.
func ForwardBatch[T float](n *Network, x []T, rows int) []T {
	out := x
	for _, l := range n.layers {
		out = at[T](l).forward(l, out, rows)
	}
	return out
}

// backwardBatch is the whole backward pass: parameter gradients from
// the first gradRows rows, and the first layer's input gradient for
// rows [row0, rows) and input columns [col0, InputDim) (none when row0
// is rows); every later layer's dX is computed whole.
func backwardBatch[T float](n *Network, dOut []T, rows, gradRows, row0, col0 int) []T {
	d := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		if i > 0 {
			d = at[T](l).backward(l, d, rows, gradRows, 0, 0)
		} else {
			d = at[T](l).backward(l, d, rows, gradRows, row0, col0)
		}
	}
	return d
}

// BackwardBatchParams propagates dL/dOutput ([rows × OutputDim]) for
// the rows of the preceding ForwardBatch, summing parameter gradients
// over the minibatch. The first layer's input gradient — pure overhead
// in a critic or actor regression step — is skipped.
func BackwardBatchParams[T float](n *Network, dOut []T, rows int) {
	backwardBatch(n, dOut, rows, rows, rows, 0)
}

// BackwardBatchSplit propagates dL/dOutput for ALL rows of the
// preceding ForwardBatch but accumulates parameter gradients from the
// FIRST gradRows rows only, and returns dL/dInput of the rows after
// them, for input columns [col, InputDim) only: a
// [(rows−gradRows) × (InputDim−col)] matrix owned by the first layer.
// It is the fused DDPG critic pass: rows [0, gradRows) carry the critic
// regression (their parameter gradients are kept, per-row identical
// to a separate BackwardBatchParams call), rows [gradRows, rows) carry
// dQ/da probes whose action-column input gradients flow to the actor
// (per element identical to the whole pass's dX: the window starts at
// the 4-row group gradRows falls in). One pass replaces two,
// transposing each weight matrix once instead of twice.
func BackwardBatchSplit[T float](n *Network, dOut []T, rows, gradRows, col int) []T {
	gradRows = min(gradRows, rows)
	row0 := gradRows &^ 3
	dx := backwardBatch(n, dOut, rows, gradRows, row0, col)
	return dx[(gradRows-row0)*(n.layers[0].In-col):]
}

// ForwardBatch is the float64 ForwardBatch.
func (n *Network) ForwardBatch(x []float64, rows int) []float64 {
	return ForwardBatch(n, x, rows)
}

// BackwardBatch propagates dL/dOutput ([rows × OutputDim]) for the
// rows of the preceding ForwardBatch through the network, summing
// parameter gradients over the minibatch, and returns dL/dInput
// ([rows × InputDim]).
func (n *Network) BackwardBatch(dOut []float64, rows int) []float64 {
	return backwardBatch(n, dOut, rows, rows, 0, 0)
}

// BackwardBatchParams is the float64 BackwardBatchParams.
func (n *Network) BackwardBatchParams(dOut []float64, rows int) {
	BackwardBatchParams(n, dOut, rows)
}

// BackwardBatchInput propagates input gradients WITHOUT accumulating
// any parameter gradients and returns dL/dInput for input columns
// [col, InputDim) only ([rows × (InputDim−col)], owned by the first
// layer) — the unfused DDPG actor update pushes dQ/da back through the
// critic for the action columns and throws the critic's own gradients
// and the state columns away, so neither is computed.
func (n *Network) BackwardBatchInput(dOut []float64, rows, col int) []float64 {
	return backwardBatch(n, dOut, rows, 0, 0, col)
}

// views returns the network's parameter and gradient buffers at
// element type T (weights then biases, layer by layer), cached because
// the layer buffers never move — optimizer steps don't allocate.
func views[T float](n *Network) (params, grads [][]T) {
	c, ok := any(&n.v64).(*sliceViews[T])
	if !ok {
		c = any(&n.v32).(*sliceViews[T])
	}
	if c.params == nil {
		for _, l := range n.layers {
			p := at[T](l)
			c.params = append(c.params, p.w, p.b)
			c.grads = append(c.grads, p.dw, p.db)
		}
	}
	return c.params, c.grads
}

// ZeroGrad clears the accumulated gradients of element type T.
func ZeroGrad[T float](n *Network) {
	_, grads := views[T](n)
	for _, g := range grads {
		clear(g)
	}
}
