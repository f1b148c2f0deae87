package nn

// This file is the bit-exact forward, the package's one float64
// forward whose rows do not depend on how they are batched: ForwardRows
// evaluates many inputs in one call with layer-owned scratch (zero
// allocations once warm), each row summed in sequential order, and
// Network.Forward is its one-row case. ForwardBatch (batch.go) is
// faster — its rows4/dot kernels reassociate sums and its numerics
// depend on a row's position in the batch — which is exactly what
// batched actors computing replay priorities cannot tolerate: the
// deterministic round-robin figures and the remote actors' bit-for-bit
// priority verification both require that batching over rows changes
// nothing. Each row runs the sequential-order product (seqProduct,
// batch.go): on AVX2 a kernel whose lanes are four outputs, each summed
// in ascending input order, so it is fast without reassociating
// anything.

// ForwardRows computes y_r = act(W x_r + b) for rows row-major inputs,
// one seqProduct call per row, so each output row has the bits a
// one-row call on that row's input gives. The returned slice
// ([rows × Out]) is the layer's activation cache, shared with
// ForwardBatch, and is valid until the layer's next forward pass.
func (d *Dense) ForwardRows(x []float64, rows int) []float64 {
	if len(x) < rows*d.In {
		panic("nn: ForwardRows input shorter than rows*In")
	}
	p := &d.f64
	p.bx = Grow(p.bx, rows*d.In)
	p.bz = Grow(p.bz, rows*d.Out)
	p.by = Grow(p.by, rows*d.Out)
	copy(p.bx, x[:rows*d.In])
	for r := 0; r < rows; r++ {
		seqProduct(d.W, p.bx[r*d.In:(r+1)*d.In], d.B, p.bz[r*d.Out:(r+1)*d.Out], d.In, d.Out)
	}
	applyBatch(d.Act, p.bz, p.by)
	return p.by
}

// ForwardRows runs the network over rows row-major inputs
// ([rows × InputDim]), returning [rows × OutputDim] with every row
// bit-identical to a Forward of that input. The result is owned by the
// last layer and valid until the network's next forward pass.
func (n *Network) ForwardRows(x []float64, rows int) []float64 {
	out := x
	for _, l := range n.layers {
		out = l.ForwardRows(out, rows)
	}
	return out
}
