package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"quarc/internal/rng"
)

func TestContentionReport(t *testing.T) {
	out, err := Contention(context.Background(), 16, 8, 0.05, 0.01, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quarc", "spidergon", "no-credit", "vc-busy", "arb-lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("contention report lacks %q", want)
		}
	}
}

func TestDepthSweepMonotoneAtLowDepth(t *testing.T) {
	rows, err := DepthSweep(context.Background(), "quarc", 16, 8, 0.05, 0.008, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Depth 1 must be clearly worse than depth 4 (single-flit buffers
	// serialise every hop); beyond depth 4 returns diminish.
	if rows[0].UniMean <= rows[2].UniMean {
		t.Errorf("depth 1 latency %.1f not above depth 4 latency %.1f",
			rows[0].UniMean, rows[2].UniMean)
	}
	for _, r := range rows {
		if r.UniMean <= 0 {
			t.Errorf("depth %d: no unicast samples", r.Depth)
		}
	}
	if s := RenderDepthSweep("quarc", rows); !strings.Contains(s, "buffer depth") {
		t.Error("render broken")
	}
}

func TestBurstyComparison(t *testing.T) {
	out, err := Bursty(context.Background(), 16, 8, 0.05, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bursty penalty") {
		t.Fatalf("bursty report incomplete:\n%s", out)
	}
}

func TestStallRatioQuarcBelowSpidergon(t *testing.T) {
	// The structural claim behind the curves: under the same moderate load
	// the Spidergon stalls more per granted flit (shared cross link, shared
	// ejection, one-port injection).
	measure := func(topo string) float64 {
		cfg := Config{Model: topo, N: 16, MsgLen: 16, Beta: 0.05, Rate: 0.015,
			Warmup: 300, Measure: 2500, Drain: 20000, Seed: 3}.WithDefaults()
		fab, nodes, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(3, 0)
		for cyc := int64(0); cyc < cfg.Warmup+cfg.Measure; cyc++ {
			for s := range nodes {
				if r.Bernoulli(cfg.Rate) {
					if r.Bernoulli(cfg.Beta) {
						nodes[s].SendBroadcast(cfg.MsgLen, fab.Now())
					} else {
						d := r.Intn(cfg.N - 1)
						if d >= s {
							d++
						}
						nodes[s].SendUnicast(d, cfg.MsgLen, fab.Now())
					}
				}
			}
			fab.Step()
		}
		for i := int64(0); i < cfg.Drain && fab.Tracker.InFlight() > 0; i++ {
			fab.Step()
		}
		st := fab.RouterStats()
		if st.Grants == 0 {
			t.Fatal("no grants")
		}
		return float64(st.TotalStalls()) / float64(st.Grants)
	}
	q := measure("quarc")
	s := measure("spidergon")
	if q >= s {
		t.Errorf("quarc stall ratio %.3f not below spidergon %.3f", q, s)
	}
}

func TestWriteCSV(t *testing.T) {
	spec := PanelSpec{Figure: "fig9", Name: "csv", N: 8, MsgLen: 4, Beta: 0.1,
		Rates: []float64{0.004, 0.01}}
	pr, err := RunPanel(spec, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := pr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + 2 rates x 2 topologies
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "figure,panel,n,msglen,beta,topology,rate") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, want := range []string{"quarc", "spidergon", "fig9"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV lacks %q", want)
		}
	}
}

func TestHotspotComparison(t *testing.T) {
	out, err := HotspotComparison(context.Background(), 16, 8, 0.3, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hotspot penalty") {
		t.Fatalf("hotspot report incomplete:\n%s", out)
	}
}

func TestPercentilesReported(t *testing.T) {
	res, err := Run(Config{Model: "quarc", N: 16, MsgLen: 8, Beta: 0.1, Rate: 0.008,
		Warmup: 300, Measure: 2000, Drain: 10000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnicastP95 < res.UnicastMean {
		t.Errorf("p95 %.1f below mean %.1f", res.UnicastP95, res.UnicastMean)
	}
	if res.UnicastP99 < res.UnicastP95 {
		t.Errorf("p99 %.1f below p95 %.1f", res.UnicastP99, res.UnicastP95)
	}
	if res.BcastP95 < res.BcastMean*0.5 {
		t.Errorf("bcast p95 %.1f implausible vs mean %.1f", res.BcastP95, res.BcastMean)
	}
}

// TestSecondaryExperimentsWorkerInvariant: the six secondary experiments run
// their points through the sweep engine, so — like a panel — their output
// must not depend on the worker count, and a cancelled context aborts them.
func TestSecondaryExperimentsWorkerInvariant(t *testing.T) {
	experiments := map[string]func(context.Context, RunOpts) (any, error){
		"verify":   func(ctx context.Context, o RunOpts) (any, error) { return Verify(ctx, o) },
		"ablation": func(ctx context.Context, o RunOpts) (any, error) { return Ablation(ctx, 16, 8, 0.05, 0.008, o) },
		"mesh":     func(ctx context.Context, o RunOpts) (any, error) { return MeshComparison(ctx, 16, 8, 0.05, o) },
		"depth": func(ctx context.Context, o RunOpts) (any, error) {
			return DepthSweep(ctx, "spidergon", 16, 8, 0.05, 0.008, o)
		},
		"bursty":  func(ctx context.Context, o RunOpts) (any, error) { return Bursty(ctx, 16, 8, 0.05, o) },
		"hotspot": func(ctx context.Context, o RunOpts) (any, error) { return HotspotComparison(ctx, 16, 8, 0.3, o) },
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range experiments {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := RunOpts{Warmup: 100, Measure: 600, Drain: 6000, Depth: 4, Seed: 11}
			opts.Workers = 1
			one, err := run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 4
			four, err := run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, four) {
				t.Errorf("workers 1 and 4 disagree:\n%v\nvs\n%v", one, four)
			}
			if _, err := run(cancelled, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled context: err = %v, want context.Canceled", err)
			}
		})
	}
}
