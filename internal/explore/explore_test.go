package explore

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quarc/internal/analytic"
	"quarc/internal/experiments"
	"quarc/internal/traffic"
)

func testOpts() experiments.RunOpts {
	return experiments.RunOpts{Warmup: 100, Measure: 400, Drain: 2000, Depth: 4, Seed: 7, Replicates: 1}
}

func TestExpandErrors(t *testing.T) {
	opts := testOpts()
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty lattice", Spec{}, "empty lattice"},
		{"no rates", Spec{Models: []string{"quarc"}, Ns: []int{16}}, "empty lattice"},
		{"unknown model", Spec{Models: []string{"hypercube"}, Ns: []int{16}, Rates: []float64{0.01}}, `unknown model "hypercube"`},
		{"bad n", Spec{Models: []string{"quarc"}, Ns: []int{0}, Rates: []float64{0.01}}, "must be positive"},
		{"bad rate", Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{-1}}, "positive finite"},
		{"nan rate", Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{math.NaN()}}, "positive finite"},
		{"bad depth", Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01}, Depths: []int{-2}}, "non-negative"},
		{"mcast frac out of range", Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01}, Mcast: []McastKnob{{Frac: 1.5, Size: 4}}}, "outside [0,1]"},
		{"mcast size without frac", Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01}, Mcast: []McastKnob{{Size: 4}}}, "without a fraction"},
		{"mcast size too small", Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01}, Mcast: []McastKnob{{Frac: 0.2, Size: 1}}}, "at least 2"},
		// Every combination invalid: all sizes skip for every model.
		{"all skipped", Spec{Models: []string{"quarc"}, Ns: []int{7}, Rates: []float64{0.01}}, "0 valid points"},
	}
	for _, c := range cases {
		_, err := c.spec.Expand(opts)
		if err == nil {
			t.Errorf("%s: Expand accepted the spec", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestExpandSkipsDedupsAndOrders(t *testing.T) {
	opts := testOpts()
	spec := Spec{
		Models: []string{"quarc", "mesh"},
		// 9 is square-only (mesh yes, quarc no); 16 suits both; 12 is a valid
		// ring size but no square.
		Ns: []int{9, 16, 12},
		// The duplicate rate must collapse per (model, n, depth, mcast).
		Rates:  []float64{0.01, 0.01},
		MsgLen: 4,
	}
	exp, err := spec.Expand(opts)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Valid combinations: quarc{16,12} + mesh{9,16}, one point each after
	// the duplicate rate collapses.
	if len(exp.Points) != 4 {
		t.Fatalf("got %d points, want 4: %+v", len(exp.Points), exp.Points)
	}
	if exp.Deduped != 4 {
		t.Errorf("deduped %d duplicate points, want 4", exp.Deduped)
	}
	if len(exp.Skipped) != 2 {
		t.Fatalf("got %d skips, want 2: %+v", len(exp.Skipped), exp.Skipped)
	}
	for _, sk := range exp.Skipped {
		if sk.Reason == "" {
			t.Errorf("skip %s/%d has no reason", sk.Model, sk.N)
		}
	}
	// Lattice order is model-major, then N in the given axis order.
	var got []string
	for _, p := range exp.Points {
		got = append(got, fmt.Sprintf("%s/%d", p.Model, p.N))
	}
	want := []string{"quarc/16", "quarc/12", "mesh/9", "mesh/16"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lattice order %v, want %v", got, want)
		}
	}
	// The default depth was applied.
	for _, p := range exp.Points {
		if p.Depth != 4 {
			t.Errorf("point %s/%d depth %d, want the default 4", p.Model, p.N, p.Depth)
		}
	}
	// Identical specs expand identically (the service layer relies on the
	// expansion being a pure function of the spec).
	again, err := spec.Expand(opts)
	if err != nil {
		t.Fatalf("re-Expand: %v", err)
	}
	for i := range exp.Points {
		if exp.Points[i] != again.Points[i] {
			t.Fatalf("expansion is not deterministic at point %d", i)
		}
	}
}

// The normal form is what Expand runs: every default filled in, each axis
// value the depth or knob its points carry. It is idempotent, leaves its
// receiver alone, and expands to the lattice the raw spec expands to.
func TestNormalisedIsWhatExpandRuns(t *testing.T) {
	opts := testOpts()
	opts.Depth = 8
	raw := Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01}, Depths: []int{0, 2}}
	norm := raw.Normalised(opts)
	want := Spec{Models: raw.Models, Ns: raw.Ns, Rates: raw.Rates, Depths: []int{4, 2},
		Mcast: []McastKnob{{}}, MsgLen: 16, CostWidth: 32}
	if !reflect.DeepEqual(norm, want) {
		t.Fatalf("normal form %+v, want %+v", norm, want)
	}
	if raw.Depths[0] != 0 || raw.MsgLen != 0 || raw.Mcast != nil {
		t.Errorf("Normalised modified its receiver: %+v", raw)
	}
	if again := norm.Normalised(opts); !reflect.DeepEqual(again, norm) {
		t.Errorf("normalising twice gives %+v, want %+v", again, norm)
	}
	if got := (Spec{}).Normalised(opts).Depths; !reflect.DeepEqual(got, []int{8}) {
		t.Errorf("an empty depth axis normalises to %v, want [opts.Depth] = [8]", got)
	}
	fromRaw, err := raw.Expand(opts)
	if err != nil {
		t.Fatal(err)
	}
	fromNorm, err := norm.Expand(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromRaw, fromNorm) {
		t.Fatal("the raw spec and its normal form expand differently")
	}
	for i, p := range fromRaw.Points {
		if p.Depth != norm.Depths[i] {
			t.Errorf("point %d runs depth %d, its normal axis says %d", i, p.Depth, norm.Depths[i])
		}
	}
}

func TestEvalOrderPrefersPredictedFastPoints(t *testing.T) {
	opts := testOpts()
	spec := Spec{
		Models: []string{"quarc", "ring"},
		Ns:     []int{16},
		// Near saturation the analytic wait explodes; the low rate must be
		// evaluated first despite sitting later in the axis order.
		Rates:  []float64{0.03, 0.002},
		MsgLen: 16,
	}
	exp, err := spec.Expand(opts)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	order, _ := evalOrder(exp.Points)
	if len(order) != len(exp.Points) {
		t.Fatalf("order has %d entries for %d points", len(order), len(exp.Points))
	}
	first := exp.Points[order[0]]
	if first.Model != "quarc" || first.Rate != 0.002 {
		t.Errorf("first evaluated point is %s rate=%g, want the low-load quarc point", first.Model, first.Rate)
	}
	// Ring has no analytical model: both its points must trail every quarc
	// point (unknown predictions sort last, in lattice order).
	for i, oi := range order {
		if exp.Points[oi].Model == "ring" && i < 2 {
			t.Errorf("cost-unknown ring point evaluated at position %d, before the predicted points", i)
		}
	}
}

// The predictions evalOrder hands back for Run to annotate outcomes with must
// be exactly what a fresh model call per point gives — covered points,
// saturated ones (infinite latency) and models the closed form does not cover
// alike — or analytic_latency / analytic_err_pc would move. The depth and
// multicast axes share one model call per (model, N, rate); every point along
// them must still carry it.
func TestEvalOrderPredictionsMatchFreshCalls(t *testing.T) {
	spec := Spec{
		Models: []string{"quarc", "spidergon", "ring"},
		Ns:     []int{16, 32},
		Rates:  []float64{0.002, 0.01, 0.5}, // 0.5 is far past saturation
		Depths: []int{2, 4},
		Mcast:  []McastKnob{{}, {Frac: 0.1, Size: 4}},
		MsgLen: 16,
	}
	exp, err := spec.Expand(testOpts())
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	_, preds := evalOrder(exp.Points)
	if len(preds) != len(exp.Points) {
		t.Fatalf("%d predictions for %d points", len(preds), len(exp.Points))
	}
	var covered, uncovered, saturated int
	for i, p := range exp.Points {
		want, ok := analytic.ForModel(p.Model, p.N, p.Cfg.MsgLen, p.Rate)
		if preds[i].ok != ok || preds[i].Prediction != want {
			t.Errorf("point %d (%s N=%d rate=%g): reused prediction %+v ok=%v, fresh %+v ok=%v",
				i, p.Model, p.N, p.Rate, preds[i].Prediction, preds[i].ok, want, ok)
		}
		switch {
		case !ok:
			uncovered++
		case math.IsInf(want.MeanLatency, 1):
			saturated++
		default:
			covered++
		}
	}
	if covered == 0 || uncovered == 0 || saturated == 0 {
		t.Fatalf("lattice is not mixed: %d covered, %d uncovered, %d saturated", covered, uncovered, saturated)
	}
}

// TestRunWithSyntheticEvaluator drives Run end to end without a simulator:
// the evaluator fabricates measurements, and the outcome must carry the
// cost axis, the front and the per-point provenance.
func TestRunWithSyntheticEvaluator(t *testing.T) {
	opts := testOpts()
	spec := Spec{
		Models: []string{"quarc", "spidergon", "ring"},
		Ns:     []int{16},
		Rates:  []float64{0.01},
		MsgLen: 16,
	}
	var mu sync.Mutex
	calls := 0
	eval := func(ctx context.Context, p Point) (experiments.Result, bool, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		res := experiments.Result{Cfg: p.Cfg, UnicastCount: 100, Throughput: 0.1}
		switch p.Model {
		case "quarc":
			res.UnicastMean = 20
		case "spidergon":
			res.UnicastMean = 30
		case "ring":
			res.UnicastMean = 10 // best latency, but cost-unknown
		}
		return res, p.Model == "spidergon", nil
	}
	seen := make(map[int]bool)
	oc, err := Run(context.Background(), spec, opts, 2, eval, func(i int, p Point, res experiments.Result, cached bool) {
		mu.Lock()
		defer mu.Unlock()
		if seen[i] {
			t.Errorf("point %d reported twice", i)
		}
		seen[i] = true
		if (p.Model == "spidergon") != cached {
			t.Errorf("point %s cached=%v, want the evaluator's flag", p.Model, cached)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 3 || len(oc.Points) != 3 {
		t.Fatalf("evaluated %d points, outcome has %d, want 3", calls, len(oc.Points))
	}
	byModel := map[string]PointOutcome{}
	for _, p := range oc.Points {
		byModel[p.Model] = p
	}
	if !byModel["quarc"].CostKnown || !byModel["spidergon"].CostKnown {
		t.Error("quarc/spidergon must carry a known cost axis")
	}
	if byModel["ring"].CostKnown {
		t.Error("ring has no calibrated cost model but reports one")
	}
	if q, s := byModel["quarc"].CostSlices, byModel["spidergon"].CostSlices; q <= 0 || s <= q {
		t.Errorf("cost axis %d (quarc) vs %d (spidergon): want 0 < quarc < spidergon", q, s)
	}
	// Front: ring wins latency (cost unknown), quarc wins cost; spidergon is
	// dominated by quarc (worse latency, worse cost, equal throughput).
	onFront := map[string]bool{}
	for _, i := range oc.Front {
		onFront[oc.Points[i].Model] = true
	}
	if !onFront["ring"] || !onFront["quarc"] || onFront["spidergon"] {
		t.Errorf("front models %v, want ring+quarc only", onFront)
	}
	for i, p := range oc.Points {
		if p.Model == "spidergon" {
			w := oc.DominatedBy[i]
			if w < 0 || oc.Points[w].Model != "quarc" {
				t.Errorf("spidergon's witness is %d, want the quarc point", w)
			}
		}
	}
	// Analytic annotations: quarc/spidergon have closed-form models.
	if !byModel["quarc"].AnalyticOK || !byModel["spidergon"].AnalyticOK {
		t.Error("quarc/spidergon should carry analytic predictions")
	}
	if byModel["ring"].AnalyticOK {
		t.Error("ring has no analytical model but reports a prediction")
	}
	if !byModel["quarc"].AnalyticErrOK {
		t.Error("quarc's analytic-vs-simulated error missing for a pure-unicast measured point")
	}
}

func TestRunPropagatesEvaluatorError(t *testing.T) {
	opts := testOpts()
	spec := Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01}}
	boom := fmt.Errorf("boom")
	_, err := Run(context.Background(), spec, opts, 1, func(context.Context, Point) (experiments.Result, bool, error) {
		return experiments.Result{}, false, boom
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run error %v, want the evaluator's", err)
	}
}

func TestRunCancelled(t *testing.T) {
	opts := testOpts()
	spec := Spec{Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01, 0.02}}
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(ctx, spec, opts, 1, func(ctx context.Context, p Point) (experiments.Result, bool, error) {
		cancel() // cancel mid-flight, from inside the first evaluation
		return experiments.Result{Cfg: p.Cfg, UnicastCount: 1, UnicastMean: 1}, false, nil
	}, nil)
	if err != context.Canceled {
		t.Fatalf("Run error %v, want context.Canceled", err)
	}
}

// TestRunMulticastAxis exercises the mcast knob end to end at the expansion
// level: the knob lands in the config and distinct knobs stay distinct
// points.
func TestRunMulticastAxis(t *testing.T) {
	opts := testOpts()
	spec := Spec{
		Models: []string{"quarc"}, Ns: []int{16}, Rates: []float64{0.01},
		Mcast: []McastKnob{{}, {Frac: 0.2, Size: 4}},
	}
	exp, err := spec.Expand(opts)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(exp.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(exp.Points))
	}
	if exp.Points[0].Cfg.McastFrac != 0 || exp.Points[1].Cfg.McastFrac != 0.2 || exp.Points[1].Cfg.McastSize != 4 {
		t.Errorf("mcast knobs not threaded into configs: %+v", exp.Points)
	}
	if exp.Points[0].Cfg.Pattern != traffic.Uniform {
		t.Errorf("default pattern %v, want uniform", exp.Points[0].Cfg.Pattern)
	}
}

// TestRunWorkerInvariance simulates one mixed lattice (ring and square
// models, two depths, a saturated rate) at every worker setting and requires
// deep-equal Outcomes: the fan-out and the StepWorkers pin that rides on it
// are execution details. 0 is GOMAXPROCS, the sweep engine's meaning.
func TestRunWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 24-point lattice four times")
	}
	spec := Spec{
		Models: []string{"quarc", "spidergon", "mesh"},
		Ns:     []int{16},
		Rates:  []float64{0.004, 0.02, 0.3},
		Depths: []int{2, 4},
		MsgLen: 8, Beta: 0.05,
	}
	opts := experiments.RunOpts{Warmup: 50, Measure: 300, Drain: 1500, Seed: 11}
	simulate := func(ctx context.Context, p Point) (experiments.Result, bool, error) {
		res, err := experiments.RunContext(ctx, p.Cfg)
		return res, false, err
	}
	var want Outcome
	for i, workers := range []int{1, 0, 2, 4} {
		var reported atomic.Int64
		oc, err := Run(context.Background(), spec, opts, workers, simulate, func(int, Point, experiments.Result, bool) {
			reported.Add(1)
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if int(reported.Load()) != len(oc.Points) || len(oc.Points) != 18 {
			t.Fatalf("workers %d: %d points reported of %d, want 18", workers, reported.Load(), len(oc.Points))
		}
		if i == 0 {
			want = oc
			continue
		}
		if !reflect.DeepEqual(oc, want) {
			t.Errorf("workers %d: Outcome differs from the one-worker Outcome", workers)
		}
	}
}

// TestRunPinsStepWorkersWhenFannedOut: a 144-node mesh would size itself a
// step pool (network.DefaultStepWorkers) — fine for a lone point, an
// oversubscribed machine when the lattice already runs one point per core.
// Fanned out, Run hands the evaluator StepWorkers 1; on one worker, or when
// the request names a pool size, the point arrives as expanded. Outcome and
// onPoint never see the pin.
func TestRunPinsStepWorkersWhenFannedOut(t *testing.T) {
	spec := Spec{Models: []string{"mesh", "quarc"}, Ns: []int{144, 16}, Rates: []float64{0.001, 0.002}, MsgLen: 8}
	for _, c := range []struct {
		workers, requested, want int
	}{
		{workers: 2, requested: 0, want: 1},
		{workers: 1, requested: 0, want: 0},
		{workers: 2, requested: 3, want: 3},
	} {
		opts := testOpts()
		opts.StepWorkers = c.requested
		var mu sync.Mutex
		meshes := 0
		eval := func(ctx context.Context, p Point) (experiments.Result, bool, error) {
			mu.Lock()
			defer mu.Unlock()
			if p.Cfg.StepWorkers != c.want {
				t.Errorf("workers %d, requested %d: %s n=%d evaluated with StepWorkers %d, want %d",
					c.workers, c.requested, p.Model, p.N, p.Cfg.StepWorkers, c.want)
			}
			if p.Model == "mesh" && p.N == 144 {
				meshes++
			}
			return experiments.Result{UnicastCount: 1, UnicastMean: 10}, false, nil
		}
		oc, err := Run(context.Background(), spec, opts, c.workers, eval, func(i int, p Point, _ experiments.Result, _ bool) {
			if p.Cfg.StepWorkers != c.requested {
				t.Errorf("onPoint saw StepWorkers %d, want the expanded %d", p.Cfg.StepWorkers, c.requested)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if meshes != 2 {
			t.Fatalf("lattice evaluated %d 144-node mesh points, want 2", meshes)
		}
		for _, p := range oc.Points {
			if p.Cfg.StepWorkers != c.requested {
				t.Errorf("Outcome carries StepWorkers %d, want the expanded %d", p.Cfg.StepWorkers, c.requested)
			}
		}
	}
}
