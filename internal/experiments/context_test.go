package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ctxTestConfig() Config {
	return Config{
		Model: "quarc", N: 8, MsgLen: 4, Beta: 0.05, Rate: 0.004,
		Warmup: 200, Measure: 1000, Drain: 5000, Seed: 99,
	}
}

// A cancellable-but-never-cancelled context must not perturb the simulation:
// the result is bit-identical to the background-context path.
func TestRunContextMatchesRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := RunContext(ctx, ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withCtx, plain) {
		t.Fatalf("cancellable-context result diverged:\n%+v\n%+v", withCtx, plain)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, ctxTestConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	cfg := ctxTestConfig()
	cfg.Measure = 200_000_000 // hours of simulation if cancellation fails
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want prompt return", elapsed)
	}
}

func TestRunPanelContextCancelStopsSweep(t *testing.T) {
	spec := PanelSpec{N: 8, MsgLen: 4, Beta: 0.05, Rates: []float64{0.002, 0.004}}
	opts := RunOpts{Warmup: 100, Measure: 200_000_000, Drain: 1000, Seed: 5, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunPanelContext(ctx, spec, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep cancellation took %v; want prompt return", elapsed)
	}
}

// OnPointDone must fire once per design point, with indexes covering the
// deterministic point order, on both the parallel and serial paths — and
// must not change the results.
func TestOnPointDoneCoversSweep(t *testing.T) {
	spec := PanelSpec{N: 8, MsgLen: 4, Beta: 0.05, Rates: []float64{0.002, 0.004}}
	base := RunOpts{Warmup: 100, Measure: 400, Drain: 4000, Seed: 5, Replicates: 2, Workers: 3}
	want := PanelPointCount(spec, base)
	if want != 2*2*2 { // topologies x rates x replicates
		t.Fatalf("PanelPointCount = %d, want 8", want)
	}

	runWith := func(runner func(PanelSpec, RunOpts) (PanelResult, error)) (PanelResult, map[int]int) {
		var mu sync.Mutex
		seen := map[int]int{}
		opts := base
		opts.OnPointDone = func(pd PointDone) {
			mu.Lock()
			defer mu.Unlock()
			seen[pd.Index]++
			if pd.Total != want {
				t.Errorf("PointDone.Total = %d, want %d", pd.Total, want)
			}
			if pd.Result.Cycles == 0 {
				t.Error("PointDone.Result missing cycle count")
			}
		}
		pr, err := runner(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pr, seen
	}

	parallel, seenPar := runWith(RunPanel)
	serial, seenSer := runWith(runPanelSerial)
	for name, seen := range map[string]map[int]int{"parallel": seenPar, "serial": seenSer} {
		if len(seen) != want {
			t.Fatalf("%s: %d distinct point callbacks, want %d", name, len(seen), want)
		}
		for i := 0; i < want; i++ {
			if seen[i] != 1 {
				t.Fatalf("%s: point %d completed %d times", name, i, seen[i])
			}
		}
	}
	if !reflect.DeepEqual(parallel, serial) {
		t.Fatal("OnPointDone changed sweep results between parallel and serial")
	}
}

func TestRunReplicatedContextCallback(t *testing.T) {
	var count atomic.Int64
	agg, reps, err := RunReplicatedContext(context.Background(), ctxTestConfig(), 3, 2,
		func(pd PointDone) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 || count.Load() != 3 {
		t.Fatalf("3 replicates: got %d results, %d callbacks", len(reps), count.Load())
	}
	if agg.Cfg.Seed != ctxTestConfig().Seed {
		t.Fatalf("aggregate echoes derived seed %#x, want the requested %#x",
			agg.Cfg.Seed, ctxTestConfig().Seed)
	}
	aggNoCb, _, err := RunReplicated(ctxTestConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg, aggNoCb) {
		t.Fatal("callback changed RunReplicated aggregate")
	}
}

// The histogram-backed quantiles must be ordered and bracket the mean.
func TestResultQuantiles(t *testing.T) {
	res, err := Run(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.UnicastCount == 0 {
		t.Fatal("no unicast messages measured")
	}
	if !(res.UnicastP50 <= res.UnicastP95 && res.UnicastP95 <= res.UnicastP99) {
		t.Fatalf("unordered unicast quantiles: p50=%v p95=%v p99=%v",
			res.UnicastP50, res.UnicastP95, res.UnicastP99)
	}
	if res.UnicastP99 < res.UnicastMean {
		t.Fatalf("p99 %v below mean %v", res.UnicastP99, res.UnicastMean)
	}
	if res.Cycles < res.Cfg.Warmup+res.Cfg.Measure {
		t.Fatalf("Cycles %d below warmup+measure", res.Cycles)
	}
}
