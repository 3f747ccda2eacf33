package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sweepSpec is a small panel that still exercises both architectures,
// broadcasts and several rates.
func sweepSpec() PanelSpec {
	return PanelSpec{Figure: "t", Name: "sweep", N: 8, MsgLen: 4, Beta: 0.1,
		Rates: []float64{0.004, 0.01, 0.016}}
}

// runPanelSerial is RunPanel on one worker, which draws the points in point
// order on one goroutine: the sequential sweep the fanned-out one must equal.
func runPanelSerial(spec PanelSpec, opts RunOpts) (PanelResult, error) {
	opts.Workers = 1
	return RunPanel(spec, opts)
}

// TestRunPanelParallelMatchesSerial is the engine's core guarantee: for a
// fixed seed the worker-pool sweep must be bit-identical to the sequential
// one — same aggregates, same raw replicates, same series.
func TestRunPanelParallelMatchesSerial(t *testing.T) {
	for _, replicates := range []int{1, 3} {
		opts := tinyOpts()
		opts.Replicates = replicates
		opts.Workers = 4
		par, err := RunPanel(sweepSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := runPanelSerial(sweepSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, ser) {
			t.Fatalf("replicates=%d: parallel and serial panels differ:\n%+v\nvs\n%+v",
				replicates, par, ser)
		}
	}
}

// TestRunPanelWorkerCountInvariant: the worker count must only affect
// wall-clock time, never the result.
func TestRunPanelWorkerCountInvariant(t *testing.T) {
	opts := tinyOpts()
	opts.Replicates = 2
	var prev *PanelResult
	for _, workers := range []int{1, 3, 8} {
		opts.Workers = workers
		pr, err := RunPanel(sweepSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(*prev, pr) {
			t.Fatalf("workers=%d changed the panel result", workers)
		}
		prev = &pr
	}
}

// TestRunSameSeedIsDeterministic: two Run calls with the same Config must
// produce identical Results.
func TestRunSameSeedIsDeterministic(t *testing.T) {
	cfg := Config{Model: "quarc", N: 8, MsgLen: 4, Beta: 0.1, Rate: 0.01,
		Warmup: 300, Measure: 1500, Drain: 8000, Seed: 99}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPointSeedIndependence: distinct design points must draw distinct
// seeds, and the derivation must not depend on anything but the triple.
func TestPointSeedIndependence(t *testing.T) {
	seen := map[uint64]string{}
	for _, topo := range []string{"quarc", "spidergon", "mesh", "ring"} {
		for ri := 0; ri < 10; ri++ {
			for rep := 0; rep < 5; rep++ {
				s := PointSeed(7, topo, ri, rep)
				if s != PointSeed(7, topo, ri, rep) {
					t.Fatal("PointSeed is not a pure function")
				}
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision between %s and %s/%d/%d", prev, topo, ri, rep)
				}
				seen[s] = topo
			}
		}
	}
	if PointSeed(7, "quarc", 0, 0) == PointSeed(8, "quarc", 0, 0) {
		t.Fatal("base seed does not propagate into point seeds")
	}
}

// TestAggregateReplicates covers the Replicates=3 aggregation: means of the
// replicate point estimates, across-replicate CI, summed counts, and the
// any-replicate saturation rule.
func TestAggregateReplicates(t *testing.T) {
	reps := []Result{
		{UnicastMean: 10, BcastMean: 40, UnicastP95: 20, Throughput: 0.10,
			UnicastCount: 100, BcastCount: 10, Leftover: 1},
		{UnicastMean: 12, BcastMean: 44, UnicastP95: 22, Throughput: 0.12,
			UnicastCount: 110, BcastCount: 11, Saturated: true},
		{UnicastMean: 14, BcastMean: 48, UnicastP95: 24, Throughput: 0.14,
			UnicastCount: 120, BcastCount: 12, Duplicates: 2},
	}
	agg := aggregateReplicates(reps)
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(agg.UnicastMean, 12) || !approx(agg.BcastMean, 44) {
		t.Fatalf("wrong replicate means: %+v", agg)
	}
	// CI95 of {10,12,14}: sd = 2, 1.96*2/sqrt(3).
	wantCI := 1.96 * 2 / math.Sqrt(3)
	if !approx(agg.UnicastCI, wantCI) {
		t.Fatalf("unicast CI %v, want %v", agg.UnicastCI, wantCI)
	}
	if !approx(agg.UnicastP95, 22) || !approx(agg.Throughput, 0.12) {
		t.Fatalf("percentile/throughput not averaged: %+v", agg)
	}
	if agg.UnicastCount != 330 || agg.BcastCount != 33 {
		t.Fatalf("counts not summed: %+v", agg)
	}
	if !agg.Saturated || agg.Leftover != 1 || agg.Duplicates != 2 {
		t.Fatalf("flags not folded: %+v", agg)
	}

	// A single replicate aggregates to itself, bit for bit.
	if got := aggregateReplicates(reps[:1]); !reflect.DeepEqual(got, reps[0]) {
		t.Fatalf("single-replicate aggregation is not the identity: %+v", got)
	}
}

// TestAggregateReplicatesSkipsEmptyCounts: a replicate that measured no
// messages of a class contributes no latency sample — its 0.0 mean is
// absence of data and must not drag the aggregate toward zero.
func TestAggregateReplicatesSkipsEmptyCounts(t *testing.T) {
	reps := []Result{
		{BcastMean: 0, BcastP95: 0, BcastCount: 0}, // no broadcasts landed
		{BcastMean: 180, BcastP95: 200, BcastCount: 9},
		{BcastMean: 200, BcastP95: 230, BcastCount: 11},
	}
	agg := aggregateReplicates(reps)
	if math.Abs(agg.BcastMean-190) > 1e-9 || math.Abs(agg.BcastP95-215) > 1e-9 {
		t.Fatalf("zero-count replicate biased the aggregate: %+v", agg)
	}
	if agg.BcastCount != 20 {
		t.Fatalf("counts not summed: %+v", agg)
	}
	// All replicates empty: the aggregate must look like "no data" (count 0,
	// zero mean), which Render prints as '-'.
	empty := aggregateReplicates([]Result{{}, {}, {}})
	if empty.BcastCount != 0 || empty.BcastMean != 0 || empty.UnicastMean != 0 {
		t.Fatalf("all-empty aggregation invented data: %+v", empty)
	}
}

// TestRunPanelReplicatesShape: a replicated panel carries the raw replicate
// results and coherent aggregates.
func TestRunPanelReplicatesShape(t *testing.T) {
	opts := tinyOpts()
	opts.Replicates = 3
	spec := sweepSpec()
	pr, err := RunPanel(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Replicates != 3 {
		t.Fatalf("Replicates = %d, want 3", pr.Replicates)
	}
	if !reflect.DeepEqual(pr.Models, legacyPanelModels) {
		t.Fatalf("legacy panel swept %v, want %v", pr.Models, legacyPanelModels)
	}
	for _, name := range pr.Models {
		if len(pr.Raw[name]) != len(spec.Rates) {
			t.Fatalf("%s: %d raw rate groups, want %d", name, len(pr.Raw[name]), len(spec.Rates))
		}
		for ri, reps := range pr.Raw[name] {
			if len(reps) != 3 {
				t.Fatalf("%s rate %d: %d replicates, want 3", name, ri, len(reps))
			}
			seeds := map[uint64]bool{}
			for _, r := range reps {
				seeds[r.Cfg.Seed] = true
			}
			if len(seeds) != 3 {
				t.Fatalf("%s rate %d: replicates share seeds", name, ri)
			}
			agg := pr.Results[name][ri]
			want := aggregateReplicates(reps)
			want.Cfg.Seed = opts.Seed // panels echo the sweep-level seed
			if !reflect.DeepEqual(agg, want) {
				t.Fatalf("%s rate %d: stored aggregate mismatches recomputation", name, ri)
			}
		}
	}
	if len(pr.UnicastSeries("quarc").X) != len(spec.Rates) ||
		len(pr.CollectiveSeries("spidergon").X) != len(spec.Rates) {
		t.Fatal("series incomplete under replication")
	}
}

// TestRunReplicated covers the single-config replication used by quarcsim.
func TestRunReplicated(t *testing.T) {
	cfg := Config{Model: "quarc", N: 8, MsgLen: 4, Beta: 0.1, Rate: 0.01,
		Warmup: 300, Measure: 1500, Drain: 8000, Seed: 7}

	// One replicate is exactly Run.
	agg, reps, err := RunReplicated(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reflect.DeepEqual(agg, direct) {
		t.Fatal("RunReplicated(cfg, 1) is not Run(cfg)")
	}

	// Three replicates: distinct seeds, deterministic across worker counts.
	agg3a, reps3, err := RunReplicated(cfg, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps3) != 3 {
		t.Fatalf("%d replicates, want 3", len(reps3))
	}
	seeds := map[uint64]bool{}
	for _, r := range reps3 {
		seeds[r.Cfg.Seed] = true
	}
	if len(seeds) != 3 {
		t.Fatal("replicates share seeds")
	}
	agg3b, _, err := RunReplicated(cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg3a, agg3b) {
		t.Fatal("worker count changed the replicated aggregate")
	}
	if agg3a.UnicastCount != reps3[0].UnicastCount+reps3[1].UnicastCount+reps3[2].UnicastCount {
		t.Fatal("aggregate does not sum replicate counts")
	}
}

// TestSweepRunPropagatesError: a failing point must surface its error.
func TestSweepRunPropagatesError(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = 4
	bad := PanelSpec{Figure: "t", Name: "bad", N: 7, MsgLen: 4, Beta: 0,
		Rates: []float64{0.01}} // 7 nodes: invalid for the ring topologies
	if _, err := RunPanel(bad, opts); err == nil {
		t.Fatal("parallel sweep swallowed the build error")
	}
	if _, err := runPanelSerial(bad, opts); err == nil {
		t.Fatal("serial sweep swallowed the build error")
	}
}

// TestSweepLongestFirstIsInvisible: a sweep that fans out draws its points
// heaviest offered load first, and nothing a caller receives may show it. On
// a Fig 10 panel, at 1, 2 and 4 workers, RunPanelContext must return exactly
// the one-worker sweep's Results and Raw; of two failing points the lower-indexed
// one is reported although the other runs first; and one worker reports its
// points to OnPointDone in point order.
func TestSweepLongestFirstIsInvisible(t *testing.T) {
	spec := Fig10Panels()[0]
	opts := tinyOpts()
	ser, err := runPanelSerial(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	points, _ := panelPoints(spec, opts.normalized())
	if order := drawOrder(points, 2); order[0] == 0 || points[order[0]].Cfg.Rate <= points[0].Cfg.Rate {
		t.Fatalf("a fanned-out sweep draws %v: heaviest point not first", order)
	}
	low, high := 0, len(points)-1 // the lightest quarc point and the heaviest spidergon point
	poisoned := append([]sweepPoint(nil), points...)
	poisoned[low].Cfg.Model, poisoned[high].Cfg.Model = "poison-low", "poison-high"

	for _, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		var mu sync.Mutex
		var done []int
		opts.OnPointDone = func(p PointDone) {
			mu.Lock()
			done = append(done, p.Index)
			mu.Unlock()
		}
		par, err := RunPanelContext(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Results, ser.Results) || !reflect.DeepEqual(par.Raw, ser.Raw) {
			t.Fatalf("workers=%d: panel differs from the serial sweep", workers)
		}
		if len(done) != len(points) {
			t.Fatalf("workers=%d: %d points reported done, want %d", workers, len(done), len(points))
		}
		if workers == 1 {
			for i, idx := range done {
				if idx != i {
					t.Fatalf("one worker reported points in order %v", done)
				}
			}
		}

		_, err = sweepRun(context.Background(), poisoned, workers, nil)
		if err == nil || !strings.Contains(err.Error(), "poison-low") {
			t.Fatalf("workers=%d: two poisoned points reported %v, want the lower-indexed one's error", workers, err)
		}
	}
}
