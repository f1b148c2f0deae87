package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer non-linearity.
type Activation int

// Supported activations.
const (
	// Linear is the identity.
	Linear Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Tanh squashes to (-1, 1) — the DDPG actor's output activation.
	Tanh
	// Sigmoid squashes to (0, 1).
	Sigmoid
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

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
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Dense is one fully connected layer y = act(Wx + b).
type Dense struct {
	In, Out int
	Act     Activation
	// W is row-major Out x In; B has Out entries.
	W, B []float64
	// forward caches for backprop.
	x, z, y []float64
	// dx is the reusable scalar-Backward output buffer.
	dx []float64
	// Batch state per element type (batch.go). f64.w and f64.b ARE W
	// and B (same backing arrays), and f64.dw/db are the gradients the
	// scalar Backward accumulates into as well. f32's parameters mirror
	// W/B while the float32 path is active: allocated by EnableF32,
	// nil before it.
	f64 precision[float64]
	f32 precision[float32]
	// bnz is the gradient kernel's compaction scratch, shared by both
	// element types of this layer (a layer runs one pass at a time).
	bnz []uint64
}

// newLayer builds a layer around the given parameter buffers, which
// it keeps (W/B and the float64 batch state alias them), with gradient
// buffers when trainable. A layer without them only runs forward.
func newLayer(in, out int, act Activation, w, b []float64, trainable bool) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W: w, B: b,
		x: make([]float64, in), z: make([]float64, out), y: make([]float64, out),
		f64: precision[float64]{w: w, b: b},
	}
	if trainable {
		d.f64.dw, d.f64.db = make([]float64, len(w)), make([]float64, len(b))
	}
	return d
}

// newDense builds a layer with Xavier/Glorot-uniform weights.
func newDense(in, out int, act Activation, rng *rand.Rand, trainable bool) *Dense {
	d := newLayer(in, out, act, make([]float64, in*out), make([]float64, out), trainable)
	limit := math.Sqrt(6 / float64(in+out))
	for i := range d.W {
		d.W[i] = (2*rng.Float64() - 1) * limit
	}
	return d
}

// Forward computes the layer output, caching inputs for Backward.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic("nn: Forward input length differs from In")
	}
	copy(d.x, x)
	seqProduct(d.W, d.x, d.B, d.z, d.In, d.Out)
	applyBatch(d.Act, d.z, d.y)
	return d.y
}

// Backward consumes dL/dy, accumulates dW/dB, and returns dL/dx.
// The returned slice is owned by the layer and valid until its next
// Backward call.
func (d *Dense) Backward(dY []float64) []float64 {
	if d.dx == nil {
		d.dx = make([]float64, d.In)
	}
	dX := d.dx
	for i := range dX {
		dX[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		dz := dY[o] * d.Act.derivative(d.y[o], d.z[o])
		d.f64.db[o] += dz
		row := d.W[o*d.In : (o+1)*d.In]
		dRow := d.f64.dw[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			dRow[i] += dz * d.x[i]
			dX[i] += dz * row[i]
		}
	}
	return dX
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	layers []*Dense
	// cached parameter and gradient slice headers per element type
	// (see views).
	v64 sliceViews[float64]
	v32 sliceViews[float32]
}

type sliceViews[T float] struct{ params, grads [][]T }

// NewMLP builds a multilayer perceptron with the given layer sizes
// (sizes[0] = input dim, sizes[len-1] = output dim), hidden
// activation for interior layers and outAct for the final layer.
// Without trainable it holds no gradient buffers and only runs forward,
// like a Clone; either way the weights are the same draws from rng.
func NewMLP(sizes []int, hidden, outAct Activation, rng *rand.Rand, trainable bool) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("nn: MLP needs at least input and output sizes")
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer %d size %d invalid", i, s)
		}
	}
	if rng == nil {
		return nil, errors.New("nn: need a random source for initialization")
	}
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		n.layers = append(n.layers, newDense(sizes[i], sizes[i+1], mlpActivation(i, len(sizes)-1, hidden, outAct), rng, trainable))
	}
	return n, nil
}

// mlpActivation is the activation of layer i of an MLP of layers
// layers: hidden for the interior ones, outAct for the last.
func mlpActivation(i, layers int, hidden, outAct Activation) Activation {
	if i == layers-1 {
		return outAct
	}
	return hidden
}

// MustMLP is a trainable NewMLP that panics on error.
func MustMLP(sizes []int, hidden, outAct Activation, rng *rand.Rand) *Network {
	n, err := NewMLP(sizes, hidden, outAct, rng, true)
	if err != nil {
		panic(err)
	}
	return n
}

// Forward runs the network. The returned slice is owned by the last
// layer and valid until the next Forward; copy it to retain.
func (n *Network) Forward(x []float64) []float64 {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out)
	}
	return out
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

// ZeroGrad clears the accumulated float64 gradients.
func (n *Network) ZeroGrad() { ZeroGrad[float64](n) }

// ParamSlices exposes the parameter buffers (weights then biases,
// layer by layer) for optimizers and synchronization.
func (n *Network) ParamSlices() [][]float64 {
	params, _ := views[float64](n)
	return params
}

// paramCount is the total parameter count.
func (n *Network) paramCount() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Clone copies the network for inference: the same weights, fresh
// forward caches and no gradient buffers. A clone runs every forward
// pass and can be an optimizer step's target (AdamStep only reads and
// writes its parameters), but its backward passes panic.
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.layers {
		c.layers = append(c.layers, newLayer(l.In, l.Out, l.Act,
			append([]float64(nil), l.W...), append([]float64(nil), l.B...), false))
	}
	return c
}
