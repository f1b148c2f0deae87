package nn

import "testing"

// SIMDSelected reports whether the AVX2+FMA kernels were selected.
func SIMDSelected() bool { return useSIMD }

// SetSIMD selects the kernel set for one test of the external test
// package and restores it after.
func SetSIMD(t *testing.T, on bool) { setSIMD(t, on) }
