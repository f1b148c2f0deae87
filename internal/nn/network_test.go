package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestMLPConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := MustMLP([]int{4, 8, 2}, ReLU, Tanh, rng)
	if in, out := n.layers[0].In, n.layers[len(n.layers)-1].Out; in != 4 || out != 2 {
		t.Errorf("dims %d/%d", in, out)
	}
	if n.NumParams() != 4*8+8+8*2+2 {
		t.Errorf("params = %d", n.NumParams())
	}
	if _, err := NewMLP([]int{4}, ReLU, Linear, rng); err == nil {
		t.Error("single-layer spec accepted")
	}
	if _, err := NewMLP([]int{4, 0, 2}, ReLU, Linear, rng); err == nil {
		t.Error("zero-size layer accepted")
	}
	if _, err := NewMLP([]int{4, 2}, ReLU, Linear, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Linear, -3, -3},
		{ReLU, -3, 0},
		{ReLU, 2, 2},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		y := make([]float64, 1)
		applyBatch(c.act, []float64{c.x}, y)
		if got := y[0]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.act, c.x, got, c.want)
		}
	}
	if Tanh.String() != "tanh" || ReLU.String() != "relu" {
		t.Error("activation names")
	}
}

// Forward hands its input to a kernel by pointer, so a wrong length is
// refused by name in both directions: a short input used to sum over
// whatever the cache still held, a long one to index out of range.
func TestForwardInputLength(t *testing.T) {
	net := MustMLP([]int{5, 8, 2}, ReLU, Tanh, rand.New(rand.NewSource(3)))
	for _, n := range []int{0, 4, 6} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "nn: Forward input") {
					t.Errorf("Forward of %d values into 5 inputs: recovered %q, want an nn: Forward input panic", n, msg)
				}
			}()
			net.Forward(make([]float64, n))
		}()
	}
}

// Gradient check: backprop gradients match central finite differences
// on a random network — the canonical correctness test for any
// hand-written autodiff.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := MustMLP([]int{3, 5, 4, 2}, Tanh, Linear, rng)
	x := []float64{0.3, -0.8, 0.5}
	target := []float64{0.2, -0.4}

	loss := func() float64 {
		out := net.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}

	// Analytic gradients.
	net.ZeroGrad()
	out := net.Forward(x)
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = out[i] - target[i]
	}
	net.Backward(dOut)

	params := net.ParamSlices()
	grads := net.GradSlices()
	const eps = 1e-6
	checked := 0
	for li := range params {
		for j := range params[li] {
			orig := params[li][j]
			params[li][j] = orig + eps
			lPlus := loss()
			params[li][j] = orig - eps
			lMinus := loss()
			params[li][j] = orig
			numeric := (lPlus - lMinus) / (2 * eps)
			analytic := grads[li][j]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
			if diff/scale > 1e-4 {
				t.Fatalf("grad mismatch layer %d idx %d: analytic %v numeric %v", li, j, analytic, numeric)
			}
			checked++
		}
	}
	if checked != net.NumParams() {
		t.Errorf("checked %d of %d params", checked, net.NumParams())
	}
}

// Gradient check through the actor's shape, ReLU hidden and Tanh out
// (the other two derivative branches).
func TestGradientCheckReLUTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := MustMLP([]int{4, 6, 3}, ReLU, Tanh, rng)
	x := []float64{0.5, -0.2, 0.9, -0.7}
	net.ZeroGrad()
	out := net.Forward(x)
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = 1.0 // L = sum(out)
	}
	net.Backward(dOut)
	params := net.ParamSlices()
	grads := net.GradSlices()
	const eps = 1e-6
	loss := func() float64 {
		o := net.Forward(x)
		s := 0.0
		for _, v := range o {
			s += v
		}
		return s
	}
	for li := range params {
		for j := 0; j < len(params[li]); j += 3 { // sample every third param
			orig := params[li][j]
			params[li][j] = orig + eps
			lp := loss()
			params[li][j] = orig - eps
			lm := loss()
			params[li][j] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-grads[li][j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("grad mismatch layer %d idx %d: %v vs %v", li, j, grads[li][j], numeric)
			}
		}
	}
}

func TestBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := MustMLP([]int{2, 4, 1}, Tanh, Linear, rng)
	x := []float64{0.4, -0.6}
	net.ZeroGrad()
	net.Forward(x)
	dX := net.Backward([]float64{1})
	// Finite difference on the input.
	const eps = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += eps
		lp := net.Forward(xp)[0]
		xm := append([]float64(nil), x...)
		xm[i] -= eps
		lm := net.Forward(xm)[0]
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dX[i]) > 1e-5 {
			t.Errorf("dX[%d] = %v, numeric %v", i, dX[i], numeric)
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Fit y = sin(x) on a few points; loss must fall by 10x.
	rng := rand.New(rand.NewSource(5))
	net := MustMLP([]int{1, 16, 16, 1}, Tanh, Linear, rng)
	target := net.Clone()
	opt := MustAdam(0.01)
	xs := make([][]float64, 32)
	ys := make([]float64, 32)
	for i := range xs {
		x := -2 + 4*float64(i)/31
		xs[i] = []float64{x}
		ys[i] = math.Sin(x)
	}
	lossAt := func() float64 {
		total := 0.0
		for i := range xs {
			d := net.Forward(xs[i])[0] - ys[i]
			total += d * d
		}
		return total / float64(len(xs))
	}
	initial := lossAt()
	for epoch := 0; epoch < 400; epoch++ {
		net.ZeroGrad()
		for i := range xs {
			out := net.Forward(xs[i])
			net.Backward([]float64{out[0] - ys[i]})
		}
		AdamStep(opt, net, 1/float64(len(xs)), target, 0.01)
	}
	final := lossAt()
	if final > initial/10 {
		t.Errorf("loss %v -> %v: did not converge", initial, final)
	}
}

func TestAdamValidation(t *testing.T) {
	if _, err := NewAdam(0); err == nil {
		t.Error("zero LR accepted")
	}
}

func TestAdamClipNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := MustMLP([]int{2, 2}, Linear, Linear, rng)
	target := net.Clone()
	opt := MustAdam(0.1)
	opt.ClipNorm = 0.001
	before := append([]float64(nil), net.ParamSlices()[0]...)
	net.ZeroGrad()
	net.Forward([]float64{100, 100})
	net.Backward([]float64{1000, 1000}) // huge gradients
	AdamStep(opt, net, 1, target, 0.01)
	after := net.ParamSlices()[0]
	for i := range before {
		if math.Abs(after[i]-before[i]) > 0.2 {
			t.Errorf("clipped update moved param %d by %v", i, after[i]-before[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := MustMLP([]int{2, 3, 1}, ReLU, Linear, rng)
	b := a.Clone()
	outA := a.Forward([]float64{1, 2})[0]
	outB := b.Forward([]float64{1, 2})[0]
	if outA != outB {
		t.Fatalf("clone differs: %v vs %v", outA, outB)
	}
	// Mutate the clone; the original must not move.
	b.ParamSlices()[0][0] += 1
	outA2 := a.Forward([]float64{1, 2})[0]
	if outA2 != outA {
		t.Error("mutating clone changed original")
	}
}

// TestCloneFootprint: a Clone is for inference. It holds no gradient
// buffers at either element type, its Forward is bit-identical to its
// source's, and it takes about half the heap of a source that trains —
// the gradients its source's first ZeroGrad allocates are the other
// half.
func TestCloneFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{15, 48, 48, 15} // the paper workload's actor
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	src := MustMLP(sizes, ReLU, Tanh, rng)
	src.ZeroGrad()
	runtime.ReadMemStats(&m1)
	c := src.Clone()
	runtime.ReadMemStats(&m2)
	srcB, cloneB := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	t.Logf("source %d B, clone %d B (%.1f %%)", srcB, cloneB, 100*float64(cloneB)/float64(srcB))
	if cloneB*100 > srcB*55 {
		t.Errorf("a clone takes %d B of its source's %d B, want at most 55 %%", cloneB, srcB)
	}
	c.EnableF32()
	for i, l := range c.layers {
		if l.f64.dw != nil || l.f64.db != nil || l.f32.dw != nil || l.f32.db != nil {
			t.Errorf("layer %d of a clone holds gradient buffers", i)
		}
	}
	x := make([]float64, sizes[0])
	for round := 0; round < 20; round++ {
		for i := range x {
			x[i] = 2 * rng.NormFloat64()
		}
		want := append([]float64(nil), src.Forward(x)...)
		for i, v := range c.Forward(x) {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: clone out[%d] = %v, source %v", round, i, v, want[i])
			}
		}
	}
}

// TestAdamStepTargetUpdate: the optimizer step moves the target toward
// the updated parameters by tau (a zero gradient leaves them where they
// are), tau = 1 copies them, and a tau outside [0, 1] or a target of
// another topology panics.
func TestAdamStepTargetUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	target := MustMLP([]int{2, 2}, Linear, Linear, rng)
	src := target.Clone()
	src.ParamSlices()[0][0] = 10
	target.ParamSlices()[0][0] = 0
	opt := MustAdam(0.1)
	AdamStep(opt, src, 1, target, 0.1)
	if src.ParamSlices()[0][0] != 10 {
		t.Fatalf("zero gradient moved the parameter to %v", src.ParamSlices()[0][0])
	}
	got := target.ParamSlices()[0][0]
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("target update = %v, want 1.0", got)
	}
	AdamStep(opt, src, 1, target, 1.0)
	if target.ParamSlices()[0][0] != 10 {
		t.Error("tau=1 did not copy")
	}
	panics := func(what string, step func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		step()
	}
	panics("tau > 1", func() { AdamStep(opt, src, 1, target, 2.0) })
	other := MustMLP([]int{3, 2}, Linear, Linear, rng)
	panics("topology mismatch", func() { AdamStep(opt, src, 1, other, 0.5) })
}

func TestCopyParamsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := MustMLP([]int{2, 3, 1}, ReLU, Linear, rng)
	b := MustMLP([]int{2, 3, 1}, ReLU, Linear, rng)
	if err := b.LoadParams(a.ParamFrame()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, 0.5}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Error("copy did not synchronize outputs")
	}
	c := MustMLP([]int{3, 1}, ReLU, Linear, rng)
	if err := c.LoadParams(a.ParamFrame()); err == nil {
		t.Error("mismatched copy accepted")
	}
}

// Property: tanh-output networks always emit values in [-1, 1] — the
// DDPG actor relies on this to produce valid actions.
func TestTanhOutputBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net := MustMLP([]int{4, 16, 3}, ReLU, Tanh, rng)
	f := func(a, b, c, d float64) bool {
		in := []float64{sanitize(a), sanitize(b), sanitize(c), sanitize(d)}
		out := net.Forward(in)
		for _, v := range out {
			if math.IsNaN(v) || v < -1 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}
