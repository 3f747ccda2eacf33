package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.Count() != 5 || a.Mean() != 3 {
		t.Fatalf("count/mean = %d/%v", a.Count(), a.Mean())
	}
	if math.Abs(a.Var()-2.5) > 1e-12 {
		t.Fatalf("var = %v, want 2.5", a.Var())
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	if a.CI95() <= 0 {
		t.Fatal("CI95 must be positive with variance")
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Min() != 0 || a.Max() != 0 || a.CI95() != 0 {
		t.Fatal("empty accumulator must return zeros")
	}
}

// Property: Welford mean/variance match the two-pass formulas.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var a Accumulator
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 1000)
			a.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(len(xs)-1)
		return math.Abs(a.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(a.Var()-v) < 1e-6*(1+v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(100, 1)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Total() != 100 {
		t.Fatalf("total = %d", h.Total())
	}
	if q := h.Quantile(0.5); q < 50 || q > 52 {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(0.99); q < 99 || q > 101 {
		t.Fatalf("p99 = %v", q)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 1)
	h.Add(5)
	h.Add(1e9)
	if !math.IsInf(h.Quantile(0.99), 1) {
		t.Fatal("overflow sample must push high quantiles to +Inf")
	}
	if h.Quantile(0.25) > 6 {
		t.Fatalf("low quantile affected by overflow: %v", h.Quantile(0.25))
	}
}

func TestHistogramShapeValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1) },
		func() { NewHistogram(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad histogram accepted")
				}
			}()
			f()
		}()
	}
}

func TestSeriesSaturationPoint(t *testing.T) {
	var s Series
	s.Append(0.01, 20, false)
	s.Append(0.02, 25, false)
	s.Append(0.03, 90, true)
	if got := s.SaturationPoint(); got != 0.03 {
		t.Fatalf("saturation point = %v", got)
	}
	var never Series
	never.Append(0.01, 20, false)
	if !math.IsInf(never.SaturationPoint(), 1) {
		t.Fatal("unsaturated series must report +Inf")
	}
}

func TestSaturationDetectorStable(t *testing.T) {
	var d SaturationDetector
	for i := 0; i < 30; i++ {
		d.Sample(5) // steady small backlog
	}
	if d.Saturated() {
		t.Fatal("stable backlog flagged as saturated")
	}
}

func TestSaturationDetectorGrowth(t *testing.T) {
	var d SaturationDetector
	for i := 0; i < 30; i++ {
		d.Sample(float64(i * 20)) // unbounded growth
	}
	if !d.Saturated() {
		t.Fatal("growing backlog not flagged")
	}
}

func TestSaturationDetectorTooFewSamples(t *testing.T) {
	var d SaturationDetector
	d.Sample(1e9)
	if d.Saturated() {
		t.Fatal("saturation decided on too few samples")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("median = %v", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	// Original slice untouched.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}
