package nn

import "testing"

// SetSIMD selects the kernel set for one test of the external test
// package and restores it after.
func SetSIMD(t *testing.T, on bool) { setSIMD(t, on) }

// GradSlices exposes gradient buffers in the same order as
// ParamSlices.
func (n *Network) GradSlices() [][]float64 {
	grads := gradsAt[float64](n)
	return grads
}

// NumParams reports the total parameter count.
func (n *Network) NumParams() int { return n.paramCount() }
