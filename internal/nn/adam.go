package nn

import (
	"encoding/binary"
	"errors"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba) with optional gradient
// clipping, matching the optimizer the paper's TensorFlow learner
// uses for both DDPG networks.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// ClipNorm caps the global gradient L2 norm when positive.
	ClipNorm float64

	// One step counter and moment set per element type, so one
	// optimizer drives either the f64 or the f32 parameters of a
	// network but never mixes moments across precisions.
	f64 moments[float64]
	f32 moments[float32]
}

// moments is the optimizer state at one element type: the step count
// and the first/second moment estimates, shaped like the network's
// parameter slices (nil until the first step).
type moments[T float] struct {
	t    int
	m, v [][]T
}

// NewAdam builds an optimizer with standard hyperparameters.
func NewAdam(lr float64) (*Adam, error) {
	if lr <= 0 {
		return nil, errors.New("nn: learning rate must be positive")
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}, nil
}

// MustAdam is NewAdam that panics on error.
func MustAdam(lr float64) *Adam {
	a, err := NewAdam(lr)
	if err != nil {
		panic(err)
	}
	return a
}

// AdamStep is one optimizer step on the network's parameters of
// element type T (float32: the parameter mirrors, so EnableF32 must
// have run), from the gradients accumulated at that type: it scales the
// gradients by gscale (1/n averages a minibatch sum), clips their
// global norm to ClipNorm, applies Adam and moves target's parameters
// toward the updated ones, θ' ← τ·θ + (1−τ)·θ' — the DDPG
// target-network update (Algorithm 2, lines 9–10). target must have the
// network's topology and tau lie in [0, 1]; either mistake panics. The
// caller is responsible for ZeroGrad afterwards.
//
// Past the scaling pass the step is one pass per parameter slice: on
// AVX2 adamasm writes the parameter and, right after it, the target
// element, with the arithmetic of the Go loops below (doc.go, "Kernel
// contract"). The scaling pass also sums the squares of the scaled
// gradients, in an order of its own; when that sum certifies the norm
// is below ClipNorm (clipFree) the sequential norm loop, which alone
// decides a clip, is not run. The per-parameter update runs in T; the
// norm is accumulated and the bias corrections computed in float64 and
// then narrowed (cheap, and a float32 squared-norm accumulation would
// lose precision over thousands of gradient entries), and the square
// root goes through float64 — all identity conversions at T = float64.
func AdamStep[T float](a *Adam, n *Network, gscale T, target *Network, tau T) {
	if tau < 0 || tau > 1 {
		panic("nn: tau must be in [0,1]")
	}
	params, grads := paramsAt[T](n), gradsAt[T](n)
	to := paramsAt[T](target)
	if len(to) != len(params) {
		panic("nn: target topology differs from the network's")
	}
	for i := range to {
		if len(to[i]) != len(params[i]) {
			panic("nn: target layer sizes differ from the network's")
		}
	}
	mo, ok := any(&a.f64).(*moments[T])
	if !ok {
		mo = any(&a.f32).(*moments[T])
	}
	if mo.m == nil {
		mo.m = make([][]T, len(params))
		mo.v = make([][]T, len(params))
		for i := range params {
			mo.m[i] = make([]T, len(params[i]))
			mo.v[i] = make([]T, len(params[i]))
		}
	}
	var sq float64
	count := 0
	for _, g := range grads {
		sq += scale(gscale, g)
		count += len(g)
	}
	if a.ClipNorm > 0 && !clipFree(sq, a.ClipNorm, count) {
		var norm float64
		for _, g := range grads {
			for _, v := range g {
				norm += float64(v) * float64(v)
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			f := T(a.ClipNorm / norm)
			for _, g := range grads {
				scale(f, g)
			}
		}
	}
	mo.t++
	b1c := T(1 - math.Pow(a.Beta1, float64(mo.t)))
	b2c := T(1 - math.Pow(a.Beta2, float64(mo.t)))
	beta1, beta2 := T(a.Beta1), T(a.Beta2)
	lr, eps := T(a.LR), T(a.Epsilon)
	for i := range params {
		p, g, m, v, t := params[i], grads[i], mo.m[i], mo.v[i], to[i]
		if useSIMD && len(p) > 0 {
			if wide[T]() {
				adamasm(p64(&p[0]), p64(&g[0]), p64(&m[0]), p64(&v[0]), p64(&t[0]), len(p),
					float64(beta1), float64(beta2), float64(lr), float64(eps), float64(b1c), float64(b2c), float64(tau))
			} else {
				adamasmf32(p32(&p[0]), p32(&g[0]), p32(&m[0]), p32(&v[0]), p32(&t[0]), len(p),
					float32(beta1), float32(beta2), float32(lr), float32(eps), float32(b1c), float32(b2c), float32(tau))
			}
			continue
		}
		for j := range p {
			m[j] = beta1*m[j] + (1-beta1)*g[j]
			v[j] = beta2*v[j] + (1-beta2)*g[j]*g[j]
			mHat := m[j] / b1c
			vHat := v[j] / b2c
			p[j] -= lr * mHat / (T(math.Sqrt(float64(vHat))) + eps)
		}
		for j := range t {
			t[j] = tau*p[j] + (1-tau)*t[j]
		}
	}
}

// clipFree reports whether gradients whose squares, count of them, sum
// to sq in some order certainly have a sequential norm — AdamStep's
// loop — of at most clip, so that loop cannot clip and need not run.
// Two float64 summation orders of count non-negative terms each lie
// within count·u·S of the exact sum S (u = 2⁻⁵³; plus count·2⁻¹⁰⁷⁵ from
// squares that underflow), so for count < 2³⁰ they differ by less than
// 2⁻²² relative: a sum below clip²·(1−2⁻²⁰) puts the sequential sum
// below clip² and its correctly rounded square root at or below clip.
// The margin is relative, so clip² must lie well inside the normal
// range; a NaN or infinite sum fails the compare and takes the loop.
func clipFree(sq, clip float64, count int) bool {
	lim := clip * clip * (1 - 0x1p-20)
	return count < 1<<30 && lim > 0x1p-1000 && lim < 0x1p1000 && sq < lim
}

// The optimizer's state, as AppendState writes it and LoadState reads
// it: for float64 then float32, an int64 step count t and, when t > 0,
// the first- then the second-moment estimates of every parameter slice
// in ParamSlices order, each the raw little-endian bits of a value of
// that type. t = 0 stands for no moments (no step at that type yet).
// The shapes are the network's, never the bytes'.

// AppendState appends the optimizer's state.
func (a *Adam) AppendState(dst []byte) []byte {
	return appendMoments(appendMoments(dst, &a.f64), &a.f32)
}

func appendMoments[T float](dst []byte, mo *moments[T]) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(mo.t))
	for _, s := range append(append([][]T(nil), mo.m...), mo.v...) {
		dst, _ = binary.Append(dst, binary.LittleEndian, s) // fails only on data of no fixed size
	}
	return dst
}

// SplitAdamState checks the optimizer state at the front of b for a
// network of params parameters and returns it and the bytes after it,
// allocating nothing. The bytes may come from a file: a step count must
// not be negative, the moments it implies must be present, and every
// moment must be finite and every second moment non-negative (Adam
// divides by its square root).
func SplitAdamState(b []byte, params int) (state, rest []byte, err error) {
	le := binary.LittleEndian
	n := 0
	for _, width := range [2]int{8, 4} {
		if len(b)-n < 8 || int64(le.Uint64(b[n:])) < 0 {
			return nil, nil, errors.New("nn: adam state is truncated or its step count negative")
		}
		if n += 8; le.Uint64(b[n-8:]) == 0 {
			continue
		}
		if params < 0 || uint64(params) > uint64(len(b)-n)/uint64(2*width) {
			return nil, nil, errors.New("nn: adam state is truncated")
		}
		for i := 0; i < 2*params; i++ {
			x := float64(math.Float32frombits(le.Uint32(b[n+4*i:])))
			if width == 8 {
				x = math.Float64frombits(le.Uint64(b[n+8*i:]))
			}
			if math.IsNaN(x) || math.IsInf(x, 0) || i >= params && x < 0 {
				return nil, nil, errors.New("nn: adam state holds a non-finite moment or a negative second moment")
			}
		}
		n += 2 * params * width
	}
	return b[:n], b[n:], nil
}

// LoadState replaces the optimizer's state with one SplitAdamState
// accepts whole for n's parameter count; the moments take n's parameter
// shapes. On error the optimizer is left as it was.
func (a *Adam) LoadState(state []byte, n *Network) error {
	state, rest, err := SplitAdamState(state, n.paramCount())
	if err == nil && len(rest) != 0 {
		err = errors.New("nn: adam state does not match the network's parameter count")
	}
	if err != nil {
		return err
	}
	params := n.ParamSlices()
	loadMoments(&a.f32, loadMoments(&a.f64, state, params), params)
	return nil
}

// loadMoments reads one type's checked record off the front of b into
// mo, shaped like params, and returns the bytes after it.
func loadMoments[T float](mo *moments[T], b []byte, params [][]float64) []byte {
	*mo = moments[T]{t: int(binary.LittleEndian.Uint64(b))}
	b = b[8:]
	if mo.t == 0 {
		return b
	}
	mo.m, mo.v = make([][]T, len(params)), make([][]T, len(params))
	for _, set := range [2][][]T{mo.m, mo.v} {
		for i, p := range params {
			set[i] = make([]T, len(p))
			n, _ := binary.Decode(b, binary.LittleEndian, set[i]) // SplitAdamState saw the record whole
			b = b[n:]
		}
	}
	return b
}
