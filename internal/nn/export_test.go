package nn

import "testing"

// SetSIMD selects the kernel set for one test of the external test
// package and restores it after.
func SetSIMD(t *testing.T, on bool) { setSIMD(t, on) }
