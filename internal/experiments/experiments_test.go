package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

// tinyOpts keeps unit-test runtime small.
func tinyOpts() RunOpts {
	return RunOpts{Warmup: 300, Measure: 1500, Drain: 8000, Depth: 4, Seed: 42, Points: 4}
}

func TestRunAllTopologies(t *testing.T) {
	for _, topo := range originalModels {
		res, err := Run(Config{
			Model: topo, N: 16, MsgLen: 8, Beta: 0.05, Rate: 0.004,
			Warmup: 200, Measure: 1000, Drain: 8000, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if res.UnicastCount == 0 {
			t.Errorf("%v: no unicast samples", topo)
		}
		if res.UnicastMean <= float64(8) {
			t.Errorf("%v: unicast latency %v below message length", topo, res.UnicastMean)
		}
		if res.Duplicates != 0 {
			t.Errorf("%v: %d duplicate deliveries", topo, res.Duplicates)
		}
		if res.Saturated {
			t.Errorf("%v: saturated at a trivial load", topo)
		}
		if res.Leftover != 0 {
			t.Errorf("%v: %d messages stuck", topo, res.Leftover)
		}
		if res.Throughput <= 0 {
			t.Errorf("%v: throughput %v", topo, res.Throughput)
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if _, err := Run(Config{Model: "mesh", N: 15, MsgLen: 8, Rate: 0.01}); err == nil {
		t.Error("non-square mesh accepted")
	}
	if _, err := Run(Config{Model: "nosuch", N: 16, MsgLen: 8, Rate: 0.01}); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := Run(Config{Model: "quarc", N: 13, MsgLen: 8, Rate: 0.01}); err == nil {
		t.Error("bad ring size accepted")
	}
}

func TestPaperHeadlineShape(t *testing.T) {
	// The core claims of Figs 9-11 at a stable load:
	//  (1) Quarc unicast latency below Spidergon;
	//  (2) Quarc broadcast completion several times lower;
	//  (3) identical workload, so the comparison is paired.
	opts := tinyOpts()
	load := 0.010
	q, err := Run(Config{Model: "quarc", N: 16, MsgLen: 16, Beta: 0.05, Rate: load,
		Warmup: opts.Warmup, Measure: opts.Measure, Drain: opts.Drain, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(Config{Model: "spidergon", N: 16, MsgLen: 16, Beta: 0.05, Rate: load,
		Warmup: opts.Warmup, Measure: opts.Measure, Drain: opts.Drain, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if q.UnicastMean >= s.UnicastMean {
		t.Errorf("quarc unicast %v not below spidergon %v", q.UnicastMean, s.UnicastMean)
	}
	if q.BcastMean*3 >= s.BcastMean {
		t.Errorf("quarc broadcast %v not dramatically below spidergon %v",
			q.BcastMean, s.BcastMean)
	}
}

func TestPanelSpecs(t *testing.T) {
	if len(Fig9Panels()) != 3 || len(Fig10Panels()) != 3 || len(Fig11Panels()) != 3 {
		t.Fatal("each figure has three panels in the paper")
	}
	for _, p := range Fig9Panels() {
		if p.N != 16 || p.Beta != 0.05 {
			t.Errorf("fig9 panel %+v", p)
		}
	}
	for _, p := range Fig10Panels() {
		if p.MsgLen != 16 || p.Beta != 0.10 {
			t.Errorf("fig10 panel %+v", p)
		}
	}
	for _, p := range Fig11Panels() {
		if p.N != 64 || p.MsgLen != 16 {
			t.Errorf("fig11 panel %+v", p)
		}
	}
}

func TestRateGridIsSane(t *testing.T) {
	for _, spec := range append(append(Fig9Panels(), Fig10Panels()...), Fig11Panels()...) {
		grid := rateGrid(spec, 10)
		if len(grid) != 10 {
			t.Fatalf("grid size %d", len(grid))
		}
		prev := 0.0
		for _, r := range grid {
			if r <= prev || r > 0.2 {
				t.Fatalf("%s: implausible grid %v", spec.Name, grid)
			}
			prev = r
		}
	}
}

func TestRunPanelProducesSeries(t *testing.T) {
	spec := PanelSpec{Figure: "t", Name: "tiny", N: 8, MsgLen: 4, Beta: 0.1,
		Rates: []float64{0.004, 0.012}}
	pr, err := RunPanel(spec, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.UnicastSeries("quarc").X) != 2 || len(pr.UnicastSeries("spidergon").X) != 2 {
		t.Fatal("unicast series incomplete")
	}
	if len(pr.CollectiveSeries("quarc").X) != 2 || len(pr.CollectiveSeries("spidergon").X) != 2 {
		t.Fatal("broadcast series incomplete")
	}
	out := pr.Render()
	for _, want := range []string{"tiny", "quarc unicast", "spidergon broadcast", "rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}

func TestVerifyAgainstAnalyticModels(t *testing.T) {
	// The §3.2 methodology: at low load the simulator must agree with the
	// analytical models. Tolerance is generous at the 40% point where the
	// M/D/1 approximation starts drifting.
	rows, err := Verify(context.Background(), RunOpts{Warmup: 500, Measure: 4000, Drain: 15000, Depth: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no verification rows")
	}
	for _, r := range rows {
		if r.Simulated <= 0 || r.Predicted <= 0 {
			t.Errorf("%+v: non-positive latency", r)
		}
		if math.Abs(r.ErrorPc) > 25 {
			t.Errorf("%v N=%d M=%d rate=%.4f: model error %.1f%% too large (sim %.1f vs model %.1f)",
				r.Model, r.N, r.MsgLen, r.Rate, r.ErrorPc, r.Simulated, r.Predicted)
		}
	}
	if s := RenderVerify(rows); !strings.Contains(s, "model") {
		t.Error("verification render broken")
	}
}

func TestAblationLadder(t *testing.T) {
	rows, err := Ablation(context.Background(), 16, 16, 0.05, 0.008, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	byTopo := map[string]AblationRow{}
	for _, r := range rows {
		byTopo[r.Variant] = r
	}
	// True broadcast is the dominant factor: disabling it (chain variant)
	// must blow up broadcast latency toward the Spidergon level.
	if byTopo["quarc"].BcastMean*2 >= byTopo["quarc-chainbcast"].BcastMean {
		t.Errorf("chain ablation did not degrade broadcast: %v vs %v",
			byTopo["quarc"].BcastMean, byTopo["quarc-chainbcast"].BcastMean)
	}
	// The full Quarc must be the best broadcast performer of the ladder.
	for topo, r := range byTopo {
		if topo == "quarc" {
			continue
		}
		if byTopo["quarc"].BcastMean > r.BcastMean {
			t.Errorf("full quarc broadcast %v worse than %v's %v",
				byTopo["quarc"].BcastMean, topo, r.BcastMean)
		}
	}
	if s := RenderAblation(rows, 16, 16, 0.05, 0.008); !strings.Contains(s, "variant") {
		t.Error("ablation render broken")
	}
}

func TestMeshComparisonRuns(t *testing.T) {
	out, err := MeshComparison(context.Background(), 16, 8, 0.05, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quarc", "mesh", "torus"} {
		if !strings.Contains(out, want) {
			t.Errorf("mesh comparison lacks %q", want)
		}
	}
	if _, err := MeshComparison(context.Background(), 24, 8, 0.05, tinyOpts()); err == nil {
		t.Error("non-square comparison accepted")
	}
}

func TestRenderCostMatchesPaper(t *testing.T) {
	out := RenderCost()
	for _, want := range []string{"1453", "1700", "Input Buffers", "735", "Fig 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost render lacks %q", want)
		}
	}
}

func TestLinkLoadBalanceReport(t *testing.T) {
	out, err := LinkLoadBalance(16, 2, 0.01, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "quarc") || !strings.Contains(out, "spidergon") {
		t.Error("link load report incomplete")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{Model: "quarc", N: 16, Rate: 0.001}.WithDefaults()
	if c.Depth != 4 || c.MsgLen != 16 || c.Warmup == 0 || c.Measure == 0 || c.Drain == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestRunIsBitExactlyReproducible(t *testing.T) {
	cfg := Config{Model: "quarc", N: 16, MsgLen: 8, Beta: 0.1, Rate: 0.01,
		Warmup: 300, Measure: 1500, Drain: 8000, Seed: 77}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Run not reproducible:\n%+v\n%+v", a, b)
	}
}
