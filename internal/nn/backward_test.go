package nn

// This file is the per-sample backward pass the batch engine's
// gradients are checked against (and the gradient checks' analytic
// side). It reads what the last forward pass cached, row 0 of each
// layer's float64 activation caches, so it follows a one-row forward:
// Forward, or ForwardRows with rows = 1.

// derivative computes dAct/dz given the post-activation output y and
// pre-activation z.
func (a Activation) derivative(y, z float64) float64 {
	switch a {
	case ReLU:
		if z > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Backward consumes dL/dy for the layer's last one-row forward,
// accumulates dW/dB, and returns dL/dx in a new slice.
func (d *Dense) Backward(dY []float64) []float64 {
	p := &d.f64
	x, z, y := p.bx[:d.In], p.bz[:d.Out], p.by[:d.Out]
	dX := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		dz := dY[o] * d.Act.derivative(y[o], z[o])
		p.db[o] += dz
		row := d.W[o*d.In : (o+1)*d.In]
		dRow := p.dw[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			dRow[i] += dz * x[i]
			dX[i] += dz * row[i]
		}
	}
	return dX
}

// Backward propagates dL/dOutput through the network, accumulating
// parameter gradients, and returns dL/dInput.
func (n *Network) Backward(dOut []float64) []float64 {
	d := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		d = n.layers[i].Backward(d)
	}
	return d
}
