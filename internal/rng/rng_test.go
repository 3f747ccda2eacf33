package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %x vs %x", i, av, bv)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different ids coincide too often: %d/1000", same)
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical outputs")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3, 3)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(0, 0).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99, 0)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from expectation %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5, 5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(1, 1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(11, 0)
	const p, trials = 0.05, 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13, 0)
	const p, trials = 0.1, 100000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / trials
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.3 {
		t.Errorf("Geometric(%v) mean = %v, want about %v", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(17, 0)
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the published SplitMix64 algorithm.
	state := uint64(0)
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func BenchmarkUint32(b *testing.B) {
	r := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(64)
	}
}
