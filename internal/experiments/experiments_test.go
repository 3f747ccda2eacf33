package experiments

import (
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
