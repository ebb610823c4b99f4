package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank:
// the smallest value with at least q of the samples at or below it. xs need
// not be sorted; 0 is returned for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailLevels are the percentiles a latency may be reported at, lowest first.
var tailLevels = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// tailMinBeyond is how many samples must lie beyond a reported percentile.
const tailMinBeyond = 10

// highestTail returns the highest level of tailLevels that still has at
// least tailMinBeyond of n samples strictly beyond it, or 0 when even the
// median does not. The benchmark's p90 is this rule applied to the sample
// counts its sizes produce, not a constant.
func highestTail(n int) float64 {
	best := 0.0
	for _, q := range tailLevels {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= tailMinBeyond {
			best = q
		}
	}
	return best
}

// quartiles returns the first, second and third quartile of xs computed as
// Python's statistics.quantiles(xs, n=4) does (exclusive method), so the
// calibration table reads the same spread the acceptance check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// relIQR is the interquartile distance as a share of the median.
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// timed is one completed operation on the measurement clock.
type timed struct {
	at   time.Duration // when it completed (closed loop) or was due (open loop)
	ms   float64       // how long its caller waited for it
	hops int64         // the simulated work it did
}

func waits(ops []timed) []float64 {
	out := make([]float64, len(ops))
	for i, s := range ops {
		out[i] = s.ms
	}
	return out
}

// quietWindows is how many equal stretches a run is cut into.
const quietWindows = 10

// quietQuartiles cuts the measured stretch into quietWindows equal windows,
// takes in each the throughput — hops over the time the callers waited for
// them, times the number of callers, which for back-to-back operations is
// hops over the window's length without the rounding to whole operations —
// and the median wait, and returns the third quartile of the throughputs
// and the first quartile of the medians: the run as its quieter windows saw
// it. Host interference on a shared machine is one-sided and comes in
// bursts of seconds, so these repeat between runs better than whole-run
// medians do (README, "Quartiles of windows"). A window averages over tens
// to thousands of operations and many GC cycles, which a quantile of single
// operations does not.
func quietQuartiles(ops []timed, callers int) (hopsPerS, medianMS float64) {
	var span time.Duration
	for _, s := range ops {
		span = max(span, s.at)
	}
	nb := min(quietWindows, max(len(ops)/5, 1)) // a window needs a handful of operations
	hops := make([]float64, nb)
	wait := make([][]float64, nb)
	for _, s := range ops {
		w := nb - 1
		if span > 0 {
			w = min(int(int64(s.at)*int64(nb)/int64(span)), nb-1)
		}
		hops[w] += float64(s.hops)
		wait[w] = append(wait[w], s.ms)
	}
	var thr, med []float64
	for w := range hops {
		if len(wait[w]) == 0 {
			continue
		}
		thr = append(thr, float64(callers)*hops[w]/(sum(wait[w])/1000))
		med = append(med, median(wait[w]))
	}
	return percentile(thr, 0.75), percentile(med, 0.25)
}
