package analytic

import (
	"math"
	"testing"

	"quarc/internal/topology"
)

// predict is ForModel for a network the grid knows it covers.
func predict(t *testing.T, model string, n, msgLen int, lambda float64) Prediction {
	t.Helper()
	p, ok := ForModel(model, n, msgLen, lambda)
	if !ok {
		t.Fatalf("ForModel(%s, %d, %d, %g) refused", model, n, msgLen, lambda)
	}
	return p
}

// meanOverOffsets averages hops(o) over the offsets 1..n-1 of a
// vertex-symmetric ring.
func meanOverOffsets(n int, hops func(o int) int) float64 {
	sum := 0
	for o := 1; o < n; o++ {
		sum += hops(o)
	}
	return float64(sum) / float64(n-1)
}

// TestAvgHopsMatchesTopology holds the walked routes' mean length to the
// hop-count arithmetic: the Quarc transceiver's QuarcHops, and across-first
// routing's rim arc within n/4, else the cross link and the shorter arc.
func TestAvgHopsMatchesTopology(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		want := meanOverOffsets(n, func(o int) int { return topology.QuarcHops(n, 0, o) })
		if p := predict(t, "quarc", n, 8, 0); math.Abs(p.AvgHops-want) > 1e-9 {
			t.Errorf("quarc n=%d: analytic hops %v vs topology %v", n, p.AvgHops, want)
		}
		want = meanOverOffsets(n, func(o int) int {
			switch {
			case o <= n/4:
				return o
			case o >= 3*n/4:
				return n - o
			}
			return 1 + int(math.Abs(float64(o-n/2)))
		})
		if p := predict(t, "spidergon", n, 8, 0); math.Abs(p.AvgHops-want) > 1e-9 {
			t.Errorf("spidergon n=%d: analytic hops %v vs topology %v", n, p.AvgHops, want)
		}
	}
}

// TestMeshAvgHopsMatchesTopology holds the walked routes' mean length to the
// Manhattan distance on a mesh and the wrap-aware one on a torus.
func TestMeshAvgHopsMatchesTopology(t *testing.T) {
	for _, side := range []int{2, 4, 5, 8} {
		n := side * side
		var mesh, torus int
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				dx, dy := s%side-d%side, s/side-d/side
				dx, dy = max(dx, -dx), max(dy, -dy)
				mesh += dx + dy
				torus += min(dx, side-dx) + min(dy, side-dy)
			}
		}
		pairs := float64(n * (n - 1))
		if p := predict(t, "mesh", n, 8, 0); math.Abs(p.AvgHops-float64(mesh)/pairs) > 1e-9 {
			t.Errorf("mesh %dx%d: analytic %v vs manhattan %v", side, side, p.AvgHops, float64(mesh)/pairs)
		}
		if p := predict(t, "torus", n, 8, 0); math.Abs(p.AvgHops-float64(torus)/pairs) > 1e-9 {
			t.Errorf("torus %dx%d: analytic %v vs wrap-aware %v", side, side, p.AvgHops, float64(torus)/pairs)
		}
	}
}

func TestZeroLoadLatency(t *testing.T) {
	p := predict(t, "quarc", 16, 16, 0)
	want := meanOverOffsets(16, func(o int) int { return topology.QuarcHops(16, 0, o) }) + 16
	if math.Abs(p.ZeroLoadLatency-want) > 1e-9 {
		t.Fatalf("zero-load latency %v, want %v", p.ZeroLoadLatency, want)
	}
	if math.Abs(p.MeanLatency-p.ZeroLoadLatency) > 1e-9 {
		t.Fatal("at lambda=0 the mean latency must equal the zero-load latency")
	}
	if p.MaxChannelUtil != 0 {
		t.Fatal("at lambda=0 utilisation must be zero")
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for i, lam := range []float64{0, 0.005, 0.01, 0.02, 0.03} {
		p := predict(t, "quarc", 16, 16, lam)
		if p.MeanLatency < prev {
			t.Fatalf("latency decreased at step %d: %v < %v", i, p.MeanLatency, prev)
		}
		prev = p.MeanLatency
	}
}

func TestLatencyDivergesNearSaturation(t *testing.T) {
	p0 := predict(t, "quarc", 16, 16, 0)
	sat := p0.SaturationRate
	if math.IsInf(sat, 1) || sat <= 0 {
		t.Fatalf("implausible saturation rate %v", sat)
	}
	pHigh := predict(t, "quarc", 16, 16, sat*0.98)
	if pHigh.MeanLatency < 3*p0.MeanLatency {
		t.Errorf("latency near saturation %v not much larger than zero-load %v",
			pHigh.MeanLatency, p0.MeanLatency)
	}
	pOver := predict(t, "quarc", 16, 16, sat*1.05)
	if !math.IsInf(pOver.MeanLatency, 1) {
		t.Errorf("latency beyond saturation should be +Inf, got %v", pOver.MeanLatency)
	}
}

func TestUtilisationScalesLinearly(t *testing.T) {
	a := predict(t, "quarc", 16, 16, 0.01)
	b := predict(t, "quarc", 16, 16, 0.02)
	if math.Abs(b.MaxChannelUtil-2*a.MaxChannelUtil) > 1e-9 {
		t.Fatalf("utilisation not linear: %v vs %v", a.MaxChannelUtil, b.MaxChannelUtil)
	}
}

func TestSpidergonCrossUtilisationHigherThanQuarcCross(t *testing.T) {
	// The shared Spidergon cross channel carries the flows the Quarc splits
	// over two channels, so for the same load its utilisation contribution
	// is the sum of the two Quarc cross channels. Verified indirectly: the
	// Quarc saturation rate is never below the Spidergon one.
	for _, n := range []int{8, 16, 32, 64} {
		q := predict(t, "quarc", n, 16, 0)
		s := predict(t, "spidergon", n, 16, 0)
		if q.SaturationRate < s.SaturationRate-1e-12 {
			t.Errorf("n=%d: quarc saturation %v below spidergon %v",
				n, q.SaturationRate, s.SaturationRate)
		}
	}
}

func TestBroadcastAdvantageGrowsWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{8, 16, 32, 64} {
		adv := BroadcastAdvantage(n, 16)
		if adv <= prev {
			t.Fatalf("advantage not growing: n=%d adv=%v prev=%v", n, adv, prev)
		}
		prev = adv
	}
	// Paper: "almost an order of magnitude improvement" for the evaluated
	// configurations.
	if adv := BroadcastAdvantage(64, 16); adv < 5 {
		t.Errorf("n=64 broadcast advantage %v, expected >= 5x", adv)
	}
}

func TestBroadcastCompletionFormulas(t *testing.T) {
	if QuarcBroadcastCompletion(16, 16) != 20 {
		t.Fatalf("quarc completion = %v", QuarcBroadcastCompletion(16, 16))
	}
	s := SpidergonBroadcastCompletion(16, 16, 1)
	if s < 100 || s > 200 {
		t.Fatalf("spidergon completion = %v, expected ~(n/2)(m+2)", s)
	}
}

// TestBadInputsPanic: ForModel refuses what it cannot describe, and a route
// table refuses a message shorter than two flits.
func TestBadInputsPanic(t *testing.T) {
	for _, c := range []struct {
		model string
		n, m  int
	}{{"quarc", 10, 8}, {"spidergon", 6, 8}, {"mesh", 5, 8}, {"torus", 2, 8}, {"quarc", 16, 1}} {
		if _, ok := ForModel(c.model, c.n, c.m, 0); ok {
			t.Errorf("ForModel(%s, %d, %d) accepted a bad input", c.model, c.n, c.m)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a one-flit message was accepted")
		}
	}()
	tableFor("quarc", 16).predict(1, 0)
}
