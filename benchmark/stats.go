package benchmark

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because
// that is how the benchmark's driver measures spread. It needs at least
// two values; with fewer both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// tailPercentile returns the highest percentile of an ascending slice
// that still has at least ten samples beyond it, and which percentile
// that is. With ten samples or fewer there is no such percentile and it
// returns the median, as the 50th.
func tailPercentile(asc []float64) (value, pct float64) {
	n := len(asc)
	if n <= 10 {
		return median(asc), 50
	}
	return asc[n-11], 100 * float64(n-10) / float64(n)
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func toFloats(xs []int64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) * scale
	}
	return out
}
