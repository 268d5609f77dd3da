package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN when xs is empty. xs is not modified.
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

// summary renders xs as min, quartiles and max.
func summary(xs []float64) string {
	return fmt.Sprintf("min %.4g p25 %.4g median %.4g p75 %.4g max %.4g",
		quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

// tailLadder is the percentile ladder the tail rule climbs.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// beyond is how many of n samples lie strictly above the p-th
// percentile's rank. The epsilon keeps a decimal percentile such as
// 99.9, inexact in binary, from rounding its rank up a whole sample.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100-1e-9))
}

// tailPercentile is the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it; ok is false when even the
// median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// samplesFor is the smallest sample count for which percentile p has
// minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := minBeyond
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// selfTime derives a layer's self time as the difference of two
// separately measured calls: the median of the outer call's repeats
// minus the median of the inner call's. A negative value is returned
// as measured — it means the difference is inside the noise — never
// clamped to zero.
func selfTime(outer, inner []float64) float64 {
	return median(outer) - median(inner)
}

// tally counts a run's points: every attempted point and those that
// errored, failed their own verification, or did not match the golden
// digest.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// frac is failed over attempted, 0 when nothing was attempted.
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
