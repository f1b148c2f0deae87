package experiments

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// The strconv-based cell formatters must render byte-identically to
// the fmt verbs they replaced, or figure output would silently drift.
func TestCellFormattersMatchFmt(t *testing.T) {
	check := func(raw float64) bool {
		v := raw
		if math.IsNaN(v) {
			v = 0
		}
		return f0(v) == fmt.Sprintf("%.0f", v) &&
			f1(v) == fmt.Sprintf("%.1f", v) &&
			f2(v) == fmt.Sprintf("%.2f", v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{0, -0.0, 0.005, 1094.4999, 9.695, math.Inf(1), math.NaN()} {
		if f2(v) != fmt.Sprintf("%.2f", v) {
			t.Errorf("f2(%v) = %q, fmt gives %q", v, f2(v), fmt.Sprintf("%.2f", v))
		}
	}
	if itoa(42) != "42" || itoa(-7) != "-7" {
		t.Error("itoa broken")
	}
}
