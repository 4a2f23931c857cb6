package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the linear-interpolation quantile (q in [0,1]) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interquartileMean is the mean of the middle half of xs (the values
// between the first and third quartile ranks). One input with a
// pathological error cannot swing it the way it swings a mean.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

// tailPercentiles are the tail points a timing may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest percentile of n samples that leaves at
// least ten samples beyond it, so the tail figure is never one outlier.
// It is 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// tally counts attempted and failed ops. A failure is a transport error, a
// non-200 response or a failed output check; an op fails at most once, and
// its first failure is kept for the report.
type tally struct {
	attempted int
	failed    map[int]string
}

// attempt counts one op and returns its ID.
func (t *tally) attempt() int {
	t.attempted++
	return t.attempted - 1
}

// fail marks op id failed; a nil err is a passed check.
func (t *tally) fail(id int, err error) {
	if err == nil {
		return
	}
	if t.failed == nil {
		t.failed = map[int]string{}
	}
	if _, dup := t.failed[id]; !dup {
		t.failed[id] = err.Error()
	}
}

func (t *tally) failures() int { return len(t.failed) }

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.attempted)
}

// firstFailures lists up to n failure reasons in op order.
func (t *tally) firstFailures(n int) []string {
	ids := make([]int, 0, len(t.failed))
	for id := range t.failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []string
	for _, id := range ids {
		if len(out) == n {
			break
		}
		out = append(out, fmt.Sprintf("op %d: %s", id, t.failed[id]))
	}
	return out
}
