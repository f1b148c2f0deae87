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
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// Dense is one fully connected layer y = act(Wx + b).
type Dense struct {
	In, Out int
	Act     Activation
	// W is row-major Out x In; B has Out entries.
	W, B []float64
	// Batch state per element type (batch.go): parameters, gradients
	// and the activation caches every forward pass fills. f64.w and
	// f64.b ARE W and B (same backing arrays). f32's parameters mirror
	// W/B while the float32 path is active: allocated by EnableF32,
	// nil before it.
	f64 precision[float64]
	f32 precision[float32]
	// bnz is the gradient kernel's compaction scratch, shared by both
	// element types of this layer (a layer runs one pass at a time).
	bnz []uint64
}

// newLayer builds a layer around the given parameter buffers, which
// it keeps (W/B and the float64 batch state alias them). It holds no
// gradient buffers: the first pass that writes gradients allocates them
// (gradsAt).
func newLayer(in, out int, act Activation, w, b []float64) *Dense {
	return &Dense{
		In: in, Out: out, Act: act,
		W: w, B: b,
		f64: precision[float64]{w: w, b: b},
	}
}

// newDense builds a layer with Xavier/Glorot-uniform weights.
func newDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := newLayer(in, out, act, make([]float64, in*out), make([]float64, out))
	limit := math.Sqrt(6 / float64(in+out))
	for i := range d.W {
		d.W[i] = (2*rng.Float64() - 1) * limit
	}
	return d
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	layers []*Dense
	// cached parameter and gradient slice headers per element type
	// (see paramsAt and gradsAt).
	v64 sliceViews[float64]
	v32 sliceViews[float32]
}

type sliceViews[T float] struct{ params, grads [][]T }

// NewMLP builds a multilayer perceptron with the given layer sizes
// (sizes[0] = input dim, sizes[len-1] = output dim), hidden
// activation for interior layers and outAct for the final layer, its
// weights drawn from rng. It holds no gradient buffers until a pass
// writes gradients (ZeroGrad, a backward pass that accumulates them,
// AdamStep), so a network that only runs forward never has any.
func NewMLP(sizes []int, hidden, outAct Activation, rng *rand.Rand) (*Network, error) {
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
		n.layers = append(n.layers, newDense(sizes[i], sizes[i+1], mlpActivation(i, len(sizes)-1, hidden, outAct), rng))
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

// MustMLP is NewMLP that panics on error.
func MustMLP(sizes []int, hidden, outAct Activation, rng *rand.Rand) *Network {
	n, err := NewMLP(sizes, hidden, outAct, rng)
	if err != nil {
		panic(err)
	}
	return n
}

// Forward runs the network on one input of exactly the first layer's
// width: it is ForwardRows with one row. The returned slice shares the
// layers' batch scratch, so it is valid only until the next forward
// pass of any kind on this network; copy it to retain.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.layers[0].In {
		panic("nn: Forward input length differs from In")
	}
	return n.ForwardRows(x, 1)
}

// ZeroGrad clears the accumulated float64 gradients, allocating them
// if the network holds none.
func (n *Network) ZeroGrad() { ZeroGrad[float64](n) }

// DropGrads lets go of the gradients at both element types, in place
// and without allocating. What they held is lost: the next pass that
// writes gradients regrows them zeroed, as ZeroGrad leaves them, so a
// caller that starts every accumulation with ZeroGrad computes the
// same bits with or without the drop.
func (n *Network) DropGrads() {
	for _, l := range n.layers {
		l.f64.dw, l.f64.db, l.f32.dw, l.f32.db = nil, nil, nil, nil
	}
	n.v64.grads, n.v32.grads = nil, nil
}

// ParamSlices exposes the parameter buffers (weights then biases,
// layer by layer) for optimizers and synchronization.
func (n *Network) ParamSlices() [][]float64 { return paramsAt[float64](n) }

// paramCount is the total parameter count.
func (n *Network) paramCount() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Clone copies the network: the same weights, and no activation caches
// or gradient buffers yet. A clone that is only run forward or is an
// optimizer step's target (AdamStep only reads and writes a target's
// parameters), as the DDPG targets and an actor's view are, never
// holds gradients.
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.layers {
		c.layers = append(c.layers, newLayer(l.In, l.Out, l.Act,
			append([]float64(nil), l.W...), append([]float64(nil), l.B...)))
	}
	return c
}
