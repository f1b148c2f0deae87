package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAdam is the optimizer step as it was before the target update
// moved into the Adam kernel and the clip-norm loop became skippable:
// scale every gradient, sum the squares in order, clip, run Adam's loop
// slice by slice, then move the target slice by slice. step reports the
// sequential norm it decided the clip on.
type refAdam[T float] struct {
	t    int
	m, v [][]T
}

func (r *refAdam[T]) step(a *Adam, params, grads, target [][]T, gscale, tau T) (norm float64) {
	if r.m == nil {
		for _, p := range params {
			r.m = append(r.m, make([]T, len(p)))
			r.v = append(r.v, make([]T, len(p)))
		}
	}
	for _, g := range grads {
		for j := range g {
			g[j] *= gscale
		}
	}
	for _, g := range grads {
		for _, v := range g {
			norm += float64(v) * float64(v)
		}
	}
	norm = math.Sqrt(norm)
	if norm > a.ClipNorm {
		f := T(a.ClipNorm / norm)
		for _, g := range grads {
			for j := range g {
				g[j] *= f
			}
		}
	}
	r.t++
	b1c := T(1 - math.Pow(a.Beta1, float64(r.t)))
	b2c := T(1 - math.Pow(a.Beta2, float64(r.t)))
	beta1, beta2 := T(a.Beta1), T(a.Beta2)
	lr, eps := T(a.LR), T(a.Epsilon)
	for i := range params {
		p, g, m, v := params[i], grads[i], r.m[i], r.v[i]
		for j := range p {
			m[j] = beta1*m[j] + (1-beta1)*g[j]
			v[j] = beta2*v[j] + (1-beta2)*g[j]*g[j]
			mHat := m[j] / b1c
			vHat := v[j] / b2c
			p[j] -= lr * mHat / (T(math.Sqrt(float64(vHat))) + eps)
		}
	}
	for i := range target {
		x, y := params[i], target[i]
		for j := range y {
			y[j] = tau*x[j] + (1-tau)*y[j]
		}
	}
	return norm
}

// seqNorm is the reference's norm of gradients scaled by gscale.
func seqNorm[T float](grads [][]T, gscale T) float64 {
	var s float64
	for _, g := range grads {
		for _, v := range g {
			v *= gscale
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}

// landNorm rescales grads and then sets their last two elements — the
// last two terms of the sequential sum, a coarse and a fine one — by
// bisection on their bit patterns, so that seqNorm is the smallest it
// can be at or above target: within an ulp or two of it at either
// width.
func landNorm[T float](grads [][]T, gscale T, target float64) {
	last := grads[len(grads)-1]
	coarse, fine := &last[len(last)-2], &last[len(last)-1]
	*coarse, *fine = 0, 0
	f := T(target * (1 - 1e-3) / seqNorm(grads, gscale))
	for _, g := range grads {
		for j := range g {
			g[j] *= f
		}
	}
	bisect := func(e *T, goal float64) {
		top := uint64(math.Float32bits(math.MaxFloat32))
		if wide[T]() {
			top = math.Float64bits(math.MaxFloat64)
		}
		value := func(u uint64) T {
			if wide[T]() {
				return T(math.Float64frombits(u))
			}
			return T(math.Float32frombits(uint32(u)))
		}
		lo, hi := uint64(0), top
		for lo < hi {
			mid := lo + (hi-lo)/2
			if *e = value(mid); seqNorm(grads, gscale) >= goal {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		*e = value(lo)
	}
	bisect(coarse, target*(1-0x1p-30))
	bisect(fine, target)
}

// sameBitsT holds got to want bit for bit at either width, any NaN
// equal to any NaN (which operand's payload survives when two NaNs meet
// is the hardware's choice, in the kernel and in compiled Go alike).
func sameBitsT[T float](t *testing.T, what string, got, want [][]T) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			g, w := float64(got[i][j]), float64(want[i][j])
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s slice %d [%d] = %v (%x), reference %v (%x)", what, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// checkFusedOptimizer runs AdamStep with a target against refAdam for
// 400 steps at T on the current kernel set, on gradients written
// straight into the network: ordinary ones, some large enough to clip
// and some small enough for the skip; every seventh step's landed a few
// ulps either side of ClipNorm, where only the sequential loop can
// decide; all-zero ones; one with a NaN and one with an infinity (whose
// clip scales by zero). The run crosses t = 356, past which b1c is 1 at
// float64, and t = 165, past which it is 1 at float32.
func checkFusedOptimizer[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	sizes := []int{9, 31, 5} // odd sizes: every slice has a vector tail
	net := MustMLP(sizes, ReLU, Tanh, rng)
	target := MustMLP(sizes, ReLU, Tanh, rng)
	net.EnableF32()
	target.EnableF32()
	ref, refTarget := trainableClone(net), target.Clone()
	ref.EnableF32()
	refTarget.EnableF32()
	opt := MustAdam(0.01)
	opt.ClipNorm = 0.5
	var ra refAdam[T]
	params, grads := views[T](net)
	tparams, _ := views[T](target)
	rparams, rgrads := views[T](ref)
	rtargets, _ := views[T](refTarget)
	gscale, tau := 1/T(32), T(0.01)
	var clipped, kept, certified int
	for step := 0; step < 400; step++ {
		near := step%7 == 3
		for _, g := range grads {
			for j := range g {
				g[j] = T(rng.NormFloat64() * []float64{0.02, 0.5, 3}[step%3])
			}
		}
		switch {
		case near:
			goal := opt.ClipNorm
			for k := step/7%5 - 2; k != 0; k -= k / max(k, -k) {
				goal = math.Nextafter(goal, math.Inf(k))
			}
			landNorm(grads, gscale, goal)
		case step%50 == 17:
			ZeroGrad[T](net)
		case step == 123:
			grads[2][7] = T(math.NaN())
		case step == 231:
			grads[0][11] = T(math.Inf(-1))
		}
		for i := range grads {
			copy(rgrads[i], grads[i])
		}
		norm := ra.step(opt, rparams, rgrads, rtargets, gscale, tau)
		if norm*norm < opt.ClipNorm*opt.ClipNorm*(1-0x1p-19) {
			certified++
		}
		if near {
			if norm > opt.ClipNorm {
				clipped++
			} else {
				kept++
			}
		}
		AdamStep(opt, net, gscale, target, tau)
		what := fmt.Sprintf("step %d (t = %d)", step, ra.t)
		sameBitsT(t, what+" parameters", params, rparams)
		sameBitsT(t, what+" targets", tparams, rtargets)
		mo, ok := any(&opt.f64).(*moments[T])
		if !ok {
			mo = any(&opt.f32).(*moments[T])
		}
		sameBitsT(t, what+" m", mo.m, ra.m)
		sameBitsT(t, what+" v", mo.v, ra.v)
	}
	if clipped == 0 || kept == 0 || certified == 0 {
		t.Fatalf("near-threshold steps clipped %d, kept %d; %d steps well inside the skip: the run no longer covers both sides",
			clipped, kept, certified)
	}
}

// TestFusedOptimizerParity pins the fused optimizer step — Adam with the
// target update in one kernel pass, the b1c == 1 divide skipped, the
// clip-norm loop skipped when the scaling pass's sum certifies it
// cannot clip — to the step it replaced, bit for bit, at both widths on
// both kernel sets.
func TestFusedOptimizerParity(t *testing.T) {
	for _, simd := range []bool{useSIMD, false} {
		setSIMD(t, simd)
		checkFusedOptimizer[float64](t)
		checkFusedOptimizer[float32](t)
	}
}
