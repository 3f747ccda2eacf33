package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"quarc/internal/stats"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// with fewer, the "percentile" is one or two outliers and moves with every
// run, so the picker refuses it instead of printing noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted. Above
// the median it refuses a percentile with fewer than minBeyond samples beyond
// it.
func percentile(sorted []time.Duration, p float64) (time.Duration, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile: p=%v outside (0,1)", p)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// sortedCopy returns the samples in ascending order without touching the
// caller's slice (latencies stay in arrival order for the trace).
func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of a float sample (mean of the middle pair for even sizes); 0 for an
// empty one.
func median(v []float64) float64 { return stats.Percentile(v, 50) }

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
