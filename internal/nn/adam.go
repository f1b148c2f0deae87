package nn

import (
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

// Step applies one update to the network's float64 parameters.
func (a *Adam) Step(n *Network) { AdamStep[float64](a, n) }

// AdamStep applies one update to the network's parameters of element
// type T from its accumulated gradients of that type (float32: the
// parameter mirrors, so EnableF32 must have run). The caller is
// responsible for ZeroGrad afterwards. The per-parameter update runs
// in T; the gradient norm is accumulated and the bias corrections are
// computed in float64 and then narrowed (cheap, and a float32
// squared-norm accumulation would lose precision over thousands of
// gradient entries), and the square root goes through float64 — all
// identity conversions at T = float64.
func AdamStep[T float](a *Adam, n *Network) {
	params, grads := views[T](n)
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
	if a.ClipNorm > 0 {
		var norm float64
		for _, g := range grads {
			for _, v := range g {
				norm += float64(v) * float64(v)
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			ScaleGrad(n, T(a.ClipNorm/norm))
		}
	}
	mo.t++
	b1c := T(1 - math.Pow(a.Beta1, float64(mo.t)))
	b2c := T(1 - math.Pow(a.Beta2, float64(mo.t)))
	beta1, beta2 := T(a.Beta1), T(a.Beta2)
	lr, eps := T(a.LR), T(a.Epsilon)
	for i := range params {
		p, g, m, v := params[i], grads[i], mo.m[i], mo.v[i]
		if useSIMD && len(p) > 0 {
			// Vectorized update; at float64 bit-identical to the loop
			// below.
			if wide[T]() {
				adamasm(p64(&p[0]), p64(&g[0]), p64(&m[0]), p64(&v[0]), len(p),
					float64(beta1), float64(beta2), float64(lr), float64(eps), float64(b1c), float64(b2c))
			} else {
				adamasmf32(p32(&p[0]), p32(&g[0]), p32(&m[0]), p32(&v[0]), len(p),
					float32(beta1), float32(beta2), float32(lr), float32(eps), float32(b1c), float32(b2c))
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
	}
}

// AdamState is the serializable optimizer state: the step counters and
// first/second moment estimates of both precisions. Together with the
// network parameters it is everything a checkpoint needs to make the
// next optimizer step bit-identical to an uninterrupted run.
type AdamState struct {
	T    int
	M, V [][]float64
	// Float32-path moments; empty when the f32 path never ran.
	T32      int
	M32, V32 [][]float32
}

// copy2 deep-copies a slice of slices (nil stays nil).
func copy2[T float](src [][]T) [][]T {
	var dst [][]T
	for _, s := range src {
		dst = append(dst, append([]T(nil), s...))
	}
	return dst
}

// State deep-copies the optimizer's moment estimates for
// checkpointing. A fresh optimizer returns a zero state.
func (a *Adam) State() AdamState {
	return AdamState{
		T: a.f64.t, M: copy2(a.f64.m), V: copy2(a.f64.v),
		T32: a.f32.t, M32: copy2(a.f32.m), V32: copy2(a.f32.v),
	}
}

// checkMoments validates checkpointed moments of one element type —
// the bytes may come from disk: the step count is not negative, m and
// v have the same shape slice by slice, and, when n is non-nil and
// there are moments at all (a zero state matches any network — it
// restores a fresh optimizer), that shape is exactly n's parameter
// slices'. AdamStep indexes the moments by the parameter shapes and
// hands the assembly kernels bare pointers, so anything this lets
// through is an out-of-bounds write later.
func checkMoments[T float](t int, m, v [][]T, n *Network) error {
	if t < 0 {
		return errors.New("nn: adam state step count is negative")
	}
	if len(m) != len(v) {
		return errors.New("nn: adam state m/v length mismatch")
	}
	for i := range m {
		if len(m[i]) != len(v[i]) {
			return errors.New("nn: adam state m/v length mismatch")
		}
	}
	if n != nil && len(m) > 0 {
		params := n.ParamSlices() // the float32 mirrors have the same shapes
		if len(m) != len(params) {
			return errors.New("nn: adam state does not match network topology")
		}
		for i := range params {
			if len(m[i]) != len(params[i]) {
				return errors.New("nn: adam state does not match network layer sizes")
			}
		}
	}
	return nil
}

// SetState restores checkpointed moment estimates. n, when non-nil, is
// the network this optimizer will step: the moment shapes of both
// precisions must match its parameter slices exactly. On error the
// optimizer is left as it was.
func (a *Adam) SetState(st AdamState, n *Network) error {
	if err := checkMoments(st.T, st.M, st.V, n); err != nil {
		return err
	}
	if err := checkMoments(st.T32, st.M32, st.V32, n); err != nil {
		return err
	}
	a.f64 = moments[float64]{st.T, copy2(st.M), copy2(st.V)}
	a.f32 = moments[float32]{st.T32, copy2(st.M32), copy2(st.V32)}
	return nil
}
