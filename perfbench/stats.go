package main

import (
	"math"
	"sort"
	"time"
)

// ladder is the percentile ladder a tail is reported from, in units of
// 1/10000 (5000 = p50, 9990 = p99.9).
var ladder = []int{5000, 9000, 9900, 9990, 9999}

// tailPercentile returns the highest ladder percentile that has at least
// ten samples beyond it among n samples, as a percentage (90, 99, …), or
// 0 when even the median has fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range ladder {
		if n*(10000-p) >= 10*10000 {
			best = p
		}
	}
	return float64(best) / 100
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// opStats accounts one kind of operation: every attempt, the failed
// ones, and the latency of each success. A failed attempt (an error, a
// timeout, a resume miss, a wrong output) contributes no latency sample,
// so a stall that ends in a timeout cannot pull a percentile down.
type opStats struct {
	attempted, failed int
	ms                []float64
	firstErr          error
}

// record settles one attempt that took d.
func (o *opStats) record(d time.Duration, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
		return
	}
	o.ms = append(o.ms, float64(d.Nanoseconds())/1e6)
}

// merge folds other into o.
func (o *opStats) merge(other *opStats) {
	o.attempted += other.attempted
	o.failed += other.failed
	if o.firstErr == nil {
		o.firstErr = other.firstErr
	}
	o.ms = append(o.ms, other.ms...)
}

// sorted returns the latency samples in ascending order.
func (o *opStats) sorted() []float64 {
	s := append([]float64(nil), o.ms...)
	sort.Float64s(s)
	return s
}

// p returns the q-quantile of the latency samples in milliseconds.
func (o *opStats) p(q float64) float64 { return quantile(o.sorted(), q) }

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
