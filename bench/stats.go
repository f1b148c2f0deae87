package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between order statistics; v need not be sorted and is
// left untouched. An empty v yields NaN.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// dist is the summary every timed quantity is reported with.
type dist struct{ P25, P50, P75 float64 }

func summarize(v []float64) dist {
	return dist{P25: quantile(v, 0.25), P50: median(v), P75: quantile(v, 0.75)}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
