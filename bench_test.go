// Benchmarks regenerating each table and figure of the paper's evaluation
// at reduced simulation length (the full-fidelity sweeps are produced by
// cmd/quarcbench; these benches exercise the identical code paths and give
// per-experiment wall-clock costs).
//
// One benchmark per paper artefact:
//
//	Fig 9  (N=16, beta=5%, M in {8,16,32})  -> BenchmarkFig9_*
//	Fig 10 (M=16, beta=10%, N in {16,32,64}) -> BenchmarkFig10_*
//	Fig 11 (N=64, M=16, beta in {0,5,10}%)   -> BenchmarkFig11_*
//	Table 1 (module-wise switch cost)        -> BenchmarkTable1_CostModel
//	Fig 12 (cost vs width)                   -> BenchmarkFig12_CostComparison
//	§3.2 simulator verification              -> BenchmarkVerification_Analytic
//	§2.2 modification ablation               -> BenchmarkAblation_Modifications
//	§4 future-work mesh/torus comparison     -> BenchmarkExtension_MeshComparison
package quarc_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"quarc"
	"quarc/internal/analytic"
	"quarc/internal/network"
	"quarc/internal/service"
)

// benchOpts keeps a single benchmark iteration around a few milliseconds.
func benchOpts() quarc.RunOpts {
	return quarc.RunOpts{Warmup: 200, Measure: 1000, Drain: 6000, Depth: 4, Seed: 1, Points: 3}
}

// benchPoint runs one paired Quarc/Spidergon measurement of a panel
// configuration at a stable mid-grid load.
func benchPoint(b *testing.B, n, msgLen int, beta float64) {
	b.Helper()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		for _, topo := range []string{"quarc", "spidergon"} {
			res, err := quarc.Run(quarc.Config{
				Model: topo, N: n, MsgLen: msgLen, Beta: beta, Rate: 0.004,
				Warmup: opts.Warmup, Measure: opts.Measure, Drain: opts.Drain,
				Depth: opts.Depth, Seed: opts.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.UnicastCount == 0 {
				b.Fatal("no samples")
			}
		}
	}
}

func BenchmarkFig9_M8(b *testing.B)  { benchPoint(b, 16, 8, 0.05) }
func BenchmarkFig9_M16(b *testing.B) { benchPoint(b, 16, 16, 0.05) }
func BenchmarkFig9_M32(b *testing.B) { benchPoint(b, 16, 32, 0.05) }

func BenchmarkFig10_N16(b *testing.B) { benchPoint(b, 16, 16, 0.10) }
func BenchmarkFig10_N32(b *testing.B) { benchPoint(b, 32, 16, 0.10) }
func BenchmarkFig10_N64(b *testing.B) { benchPoint(b, 64, 16, 0.10) }

func BenchmarkFig11_Beta0(b *testing.B)  { benchPoint(b, 64, 16, 0) }
func BenchmarkFig11_Beta5(b *testing.B)  { benchPoint(b, 64, 16, 0.05) }
func BenchmarkFig11_Beta10(b *testing.B) { benchPoint(b, 64, 16, 0.10) }

func BenchmarkTable1_CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := quarc.Table1()
		total := 0
		for _, r := range rows {
			total += r.Slices
		}
		if total != 1453 {
			b.Fatalf("table 1 total %d", total)
		}
	}
}

func BenchmarkFig12_CostComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := quarc.Fig12()
		for _, r := range rows {
			if r.QuarcSlices >= r.SpidergonSlices {
				b.Fatalf("width %d: cost claim violated", r.Width)
			}
		}
	}
}

func BenchmarkVerification_Analytic(b *testing.B) {
	// One low-load Spidergon verification point per iteration (the cheapest
	// §3.2-style cross-check).
	for i := 0; i < b.N; i++ {
		res, err := quarc.Run(quarc.Config{
			Model: "spidergon", N: 16, MsgLen: 8, Rate: 0.003,
			Warmup: 200, Measure: 800, Drain: 4000, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.UnicastMean <= 8 {
			b.Fatal("implausible latency")
		}
	}
}

func BenchmarkAblation_Modifications(b *testing.B) {
	variants := []string{"quarc", "quarc-chainbcast", "quarc-1queue", "spidergon"}
	for i := 0; i < b.N; i++ {
		for _, topo := range variants {
			if _, err := quarc.Run(quarc.Config{
				Model: topo, N: 16, MsgLen: 8, Beta: 0.05, Rate: 0.004,
				Warmup: 200, Measure: 800, Drain: 6000, Seed: 3,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExtension_MeshComparison(b *testing.B) {
	topos := []string{"quarc", "mesh", "torus"}
	for i := 0; i < b.N; i++ {
		for _, topo := range topos {
			if _, err := quarc.Run(quarc.Config{
				Model: topo, N: 16, MsgLen: 8, Beta: 0.05, Rate: 0.004,
				Warmup: 200, Measure: 800, Drain: 6000, Seed: 4,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepLowLoad is one low-load sweep point at full evaluation
// windows: the regime most points of every Fig 9-11 curve sit in, where
// almost all routers are empty almost every cycle. This is the benchmark the
// activity-driven scheduler (active-router sets + idle-cycle skipping) is
// aimed at (dense stepping cost 233 ms/op here before PR 4).
func BenchmarkSweepLowLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := quarc.Run(quarc.Config{
			Model: "quarc", N: 64, MsgLen: 16, Beta: 0.05, Rate: 0.0005,
			Warmup: 2000, Measure: 10000, Drain: 20000, Depth: 4, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.UnicastCount == 0 || res.Saturated {
			b.Fatalf("low-load point degenerate: %+v", res)
		}
	}
}

// BenchmarkSweepSaturated is one deeply saturated sweep point, where the
// active set is the whole fabric every cycle: the guard that activity-driven
// scheduling costs nothing when there is no idleness to exploit.
func BenchmarkSweepSaturated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := quarc.Run(quarc.Config{
			Model: "quarc", N: 16, MsgLen: 16, Beta: 0.05, Rate: 0.1,
			Warmup: 200, Measure: 1000, Drain: 2000, Depth: 4, Seed: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Saturated {
			b.Fatal("saturated point did not saturate")
		}
	}
}

// BenchmarkFabricStep measures the core simulator step cost at a moderate
// load on the largest evaluated network.
func BenchmarkFabricStep(b *testing.B) {
	fab, nodes, err := quarc.Build("quarc", 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	// Prime with traffic.
	for i, nd := range nodes {
		nd.SendUnicast((i+7)%64, 16, 0)
		if i%8 == 0 {
			nd.SendBroadcast(16, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Step()
		if fab.Tracker.InFlight() == 0 {
			b.StopTimer()
			for j, nd := range nodes {
				nd.SendUnicast((j+9)%64, 16, fab.Now())
			}
			b.StartTimer()
		}
	}
}

// BenchmarkEnqueueInject measures one message's trip through the network
// adapter on a 16-node fabric: the send, whose packets are queued as
// descriptors, formed into flits by Feed as they inject, and stepped until
// every delivery has landed. A sub-benchmark per send path: unicast, the
// software broadcast (ring), the Spidergon's chain broadcast (spidergon and
// the Quarc's chain ablation), the BRCP broadcast (quarc and its single-queue
// ablation), and the BRCP and software multicasts. Once the descriptor
// slices and the tracker's free lists have grown, no send path allocates
// (CI holds every sub-benchmark to 0 allocs/op).
func BenchmarkEnqueueInject(b *testing.B) {
	targets := []int{2, 5, 11, 14} // reused: the send path must not need a fresh slice
	unicast := func(nd quarc.ModelNode, now int64) { nd.SendUnicast(5, 16, now) }
	broadcast := func(nd quarc.ModelNode, now int64) { nd.SendBroadcast(16, now) }
	multicast := func(nd quarc.ModelNode, now int64) { nd.SendMulticast(targets, 16, now) }
	for _, c := range []struct {
		send   func(nd quarc.ModelNode, now int64)
		models []string
		name   string
	}{
		{unicast, []string{"quarc", "spidergon", "ring"}, "unicast"},
		{broadcast, []string{"quarc", "quarc-1queue", "quarc-chainbcast", "spidergon", "ring"}, "broadcast"},
		{multicast, []string{"quarc", "mesh"}, "multicast"},
	} {
		for _, name := range c.models {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				fab, nodes, err := quarc.Build(name, 16, 4)
				if err != nil {
					b.Fatal(err)
				}
				send := func() {
					c.send(nodes[0], fab.Now())
					for fab.Tracker.InFlight() > 0 {
						fab.Step()
					}
				}
				for i := 0; i < 4; i++ {
					send()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					send()
				}
			})
		}
	}
}

// BenchmarkForModelWarm measures one analytic prediction off a memoised
// route table — what an explore pays per distinct (model, N, M, rate) and a
// degraded answer pays per request: the per-channel waits (its one
// allocation, which CI holds it to) and one replay of the 4032 kept routes.
func BenchmarkForModelWarm(b *testing.B) {
	analytic.ForModel("quarc", 64, 16, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, ok := analytic.ForModel("quarc", 64, 16, 0.004); !ok || p.MeanLatency <= 16 {
			b.Fatal("implausible prediction")
		}
	}
}

// BenchmarkHandlerHot measures a cached POST /v1/runs?wait=1 through
// Server.Handler() with the job store at capacity — more than StoreEntries
// jobs have been submitted, so every request evicts the oldest record, the
// steady state of any daemon that has served a few thousand requests. Decode,
// validate, canonical hash, job record, memory-cache hit and encode are the
// whole cost; CI holds the bytes per request under 32 KiB (eviction once
// copied the whole id slice: 166 KB/op).
func BenchmarkHandlerHot(b *testing.B) {
	const entries = 4096 // the default StoreEntries
	svc, err := service.New(service.Config{Workers: 1, StoreEntries: entries})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body := []byte(`{"n":8,"msglen":4,"rate":0.002,"warmup":100,"measure":300,"drain":3000,"seed":7}`)
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < entries+104; i++ {
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkFabricStepParallel measures the per-cycle cost of one big fabric
// — a 32x32 mesh, the single-point scale the intra-fabric worker pool
// targets — with the pool off (serial) and at the automatic size. On a
// multi-core machine the auto pool shards each phase across GOMAXPROCS
// workers; on a single-core machine auto resolves to the serial path and the
// two sub-benchmarks coincide.
func BenchmarkFabricStepParallel(b *testing.B) {
	const n = 1024
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"auto", quarc.DefaultStepWorkers(n)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			fab, nodes, err := quarc.Build("mesh", n, 4)
			if err != nil {
				b.Fatal(err)
			}
			fab.SetStepWorkers(bench.workers)
			defer fab.Close()
			refill := func(now int64) {
				for i, nd := range nodes {
					nd.SendUnicast((i+31)%n, 16, now)
					nd.SendUnicast((i+997)%n, 16, now)
				}
			}
			refill(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fab.Step()
				if fab.Tracker.InFlight() == 0 {
					b.StopTimer()
					refill(fab.Now())
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkPointN1024Saturated runs the tentpole workload end to end: one
// saturated 1024-node mesh design point, serial versus the automatic
// intra-point pool. This is the "one big point" regime where sweep-level
// parallelism has nothing to fan out and only intra-fabric sharding helps.
// dispatches/op counts the pool's helper wake-ups per point (0 serial; a
// handful pooled, where every live cycle once cost one).
func BenchmarkPointN1024Saturated(b *testing.B) {
	for _, bench := range []struct {
		name        string
		stepWorkers int
	}{
		{"serial", 1},
		{"auto", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			before := network.PoolDispatches()
			for i := 0; i < b.N; i++ {
				res, err := quarc.Run(quarc.Config{
					Model: "mesh", N: 1024, MsgLen: 16, Rate: 0.05,
					Warmup: 100, Measure: 400, Drain: 500, Depth: 4, Seed: 13,
					StepWorkers: bench.stepWorkers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Saturated {
					b.Fatal("N=1024 point did not saturate")
				}
			}
			b.ReportMetric(float64(network.PoolDispatches()-before)/float64(b.N), "dispatches/op")
		})
	}
}

// BenchmarkContention_StallBreakdown exercises the microarchitectural
// stall accounting (the §2.1 bottleneck analysis).
func BenchmarkContention_StallBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := quarc.Run(quarc.Config{
			Model: "spidergon", N: 16, MsgLen: 16, Beta: 0.05, Rate: 0.012,
			Warmup: 200, Measure: 800, Drain: 6000, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkAblation_BufferDepth exercises the §2.3.1 depth parameter.
func BenchmarkAblation_BufferDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{2, 8} {
			if _, err := quarc.Run(quarc.Config{
				Model: "quarc", N: 16, MsgLen: 16, Beta: 0.05, Rate: 0.008,
				Depth: depth, Warmup: 200, Measure: 800, Drain: 6000, Seed: 6,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
