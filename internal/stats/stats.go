// Package stats collects and summarises simulation measurements: latency
// accumulators per traffic class, histograms, warmup/measurement windows and
// saturation detection, matching the methodology of the paper's §3.2
// evaluation (average latency per class versus offered message rate).
package stats

import (
	"math"
	"sort"
)

// Accumulator keeps streaming mean/variance (Welford) plus extremes.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records a sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of samples.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Min and Max return the extremes (0 with no samples).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under a normal approximation.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.Std() / math.Sqrt(float64(a.n))
}

// Histogram is a fixed-bucket latency histogram with an overflow bucket.
type Histogram struct {
	width   float64
	buckets []int64
	over    int64
	total   int64
}

// NewHistogram builds a histogram with nb buckets of the given width.
func NewHistogram(nb int, width float64) *Histogram {
	if nb < 1 || width <= 0 {
		panic("stats: bad histogram shape")
	}
	return &Histogram{width: width, buckets: make([]int64, nb)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	if i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// Total returns the sample count.
func (h *Histogram) Total() int64 { return h.total }

// Quantile returns an upper bound for the q-quantile (q in [0,1]); samples
// in the overflow bucket return +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return float64(i+1) * h.width
		}
	}
	return math.Inf(1)
}

// Series is one measured curve: latency (or any metric) versus offered load.
type Series struct {
	Name string
	X    []float64 // offered load (messages/node/cycle)
	Y    []float64 // metric (cycles)
	Sat  []bool    // saturation flag per point
}

// Append adds a point.
func (s *Series) Append(x, y float64, sat bool) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Sat = append(s.Sat, sat)
}

// SaturationPoint returns the smallest load at which the series saturates,
// or +Inf if it never does.
func (s *Series) SaturationPoint() float64 {
	for i, sat := range s.Sat {
		if sat {
			return s.X[i]
		}
	}
	return math.Inf(1)
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval under a normal approximation. It is the replicate
// aggregator of the sweep engine: each x is the point estimate of one
// independent replicate, and the CI quantifies across-replicate spread.
// Fewer than two samples yield a zero half-width.
func MeanCI95(xs []float64) (mean, ci95 float64) {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Mean(), a.CI95()
}

// SaturationDetector decides whether an open-loop run is beyond saturation
// by watching the total source backlog: in a stable system the backlog is
// ergodic, while past saturation it grows without bound. The detector
// samples the backlog in batches and reports saturation when the batch means
// keep growing and the final backlog is large relative to the traffic.
type SaturationDetector struct {
	samples []float64
}

// Sample records the instantaneous total backlog (flits).
func (d *SaturationDetector) Sample(backlog float64) {
	d.samples = append(d.samples, backlog)
}

// Saturated reports whether the backlog trend indicates instability: the
// batch means of three consecutive windows grow monotonically by a clear
// margin and end at a non-trivial level. A stable (ergodic) backlog
// fluctuates around its mean instead.
func (d *SaturationDetector) Saturated() bool {
	n := len(d.samples)
	if n < 9 {
		return false
	}
	third := n / 3
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	first := mean(d.samples[:third])
	mid := mean(d.samples[third : 2*third])
	last := mean(d.samples[2*third:])
	return last > 1.25*mid+1 && mid > 1.25*first+1 && last > 10
}

// Percentile computes the p-th percentile (0-100) of a slice by sorting a
// copy (convenience for small result sets).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}
