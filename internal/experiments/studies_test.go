package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// studyNamed returns the table entry with the given name.
func studyNamed(t *testing.T, name string) Study {
	t.Helper()
	for _, s := range Studies() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no study %q in the table", name)
	return Study{}
}

// runStudy runs the named study at opts.
func runStudy(t *testing.T, name string, opts RunOpts) (string, []Outcome) {
	t.Helper()
	text, outs, err := studyNamed(t, name).Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return text, outs
}

// TestSecondaryExperimentsWorkerInvariant: every study in the table runs its
// points through Fan, so — like a panel — neither its text nor its outcomes
// may depend on the worker count, and a cancelled context aborts it.
func TestSecondaryExperimentsWorkerInvariant(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range Studies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			opts := RunOpts{Warmup: 100, Measure: 600, Drain: 6000, Depth: 4, Seed: 11}
			var texts []string
			var outs [][]Outcome
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				text, o, err := s.Run(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				texts, outs = append(texts, text), append(outs, o)
			}
			if texts[0] == "" || texts[0] != texts[1] {
				t.Errorf("workers 1 and 4 print different text:\n%s\nvs\n%s", texts[0], texts[1])
			}
			if (s.Points != nil) != (len(outs[0]) > 0) {
				t.Errorf("%d outcomes from a study with points=%v", len(outs[0]), s.Points != nil)
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Errorf("workers 1 and 4 disagree:\n%+v\nvs\n%+v", outs[0], outs[1])
			}
			if _, _, err := s.Run(cancelled, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled context: err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestVerifyAgainstAnalyticModels(t *testing.T) {
	// The §3.2 methodology: at low load the simulator must agree with the
	// analytical models. Tolerance is generous at the 40% point where the
	// M/D/1 approximation starts drifting.
	_, outs := runStudy(t, "verify", RunOpts{Warmup: 500, Measure: 4000, Drain: 15000, Depth: 4, Seed: 7})
	if len(outs) == 0 {
		t.Fatal("no verification points")
	}
	for _, o := range outs {
		pred, errPc := modelError(o)
		if o.UnicastMean <= 0 || pred <= 0 {
			t.Errorf("%+v: non-positive latency (model %.1f)", o.Cfg, pred)
		}
		if math.Abs(errPc) > 25 {
			t.Errorf("%v N=%d M=%d rate=%.4f: model error %.1f%% too large (sim %.1f vs model %.1f)",
				o.Cfg.Model, o.Cfg.N, o.Cfg.MsgLen, o.Cfg.Rate, errPc, o.UnicastMean, pred)
		}
	}
}

func TestAblationLadder(t *testing.T) {
	_, outs := runStudy(t, "ablation", tinyOpts())
	if len(outs) != 4 {
		t.Fatalf("%d ablation points", len(outs))
	}
	byModel := map[string]Outcome{}
	for _, o := range outs {
		byModel[o.Cfg.Model] = o
	}
	// True broadcast is the dominant factor: disabling it (chain variant)
	// must blow up broadcast latency toward the Spidergon level.
	if byModel["quarc"].BcastMean*2 >= byModel["quarc-chainbcast"].BcastMean {
		t.Errorf("chain ablation did not degrade broadcast: %v vs %v",
			byModel["quarc"].BcastMean, byModel["quarc-chainbcast"].BcastMean)
	}
	// The full Quarc must be the best broadcast performer of the ladder.
	for model, o := range byModel {
		if byModel["quarc"].BcastMean > o.BcastMean {
			t.Errorf("full quarc broadcast %v worse than %v's %v",
				byModel["quarc"].BcastMean, model, o.BcastMean)
		}
	}
}

func TestMeshComparisonRuns(t *testing.T) {
	out, _ := runStudy(t, "mesh", tinyOpts())
	for _, want := range []string{"quarc", "mesh", "torus"} {
		if !strings.Contains(out, want) {
			t.Errorf("mesh comparison lacks %q", want)
		}
	}
}

func TestContentionReport(t *testing.T) {
	out, _ := runStudy(t, "contention", tinyOpts())
	for _, want := range []string{"quarc", "spidergon", "no-credit", "vc-busy", "arb-lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("contention report lacks %q", want)
		}
	}
}

func TestStallRatioQuarcBelowSpidergon(t *testing.T) {
	// The structural claim behind the curves: under the same moderate load
	// the Spidergon stalls more per granted flit (shared cross link, shared
	// ejection, one-port injection).
	_, outs := runStudy(t, "contention", tinyOpts())
	q, s := outs[0], outs[1]
	if q.Cfg.Model != "quarc" || s.Cfg.Model != "spidergon" {
		t.Fatalf("contention compares %s with %s", q.Cfg.Model, s.Cfg.Model)
	}
	if q.Stats.Grants == 0 || s.Stats.Grants == 0 {
		t.Fatal("no grants")
	}
	if qr, sr := stallRatio(q.Stats), stallRatio(s.Stats); qr >= sr {
		t.Errorf("quarc stall ratio %.3f not below spidergon %.3f", qr, sr)
	}
}

func TestDepthSweepMonotoneAtLowDepth(t *testing.T) {
	_, outs := runStudy(t, "depth", tinyOpts())
	if len(outs) != 10 {
		t.Fatalf("%d depth points, want 5 depths x 2 models", len(outs))
	}
	for i := 0; i < len(outs); i += 5 {
		// Depth 1 must be clearly worse than depth 4 (single-flit buffers
		// serialise every hop); beyond depth 4 returns diminish.
		d1, d4 := outs[i], outs[i+2]
		if d1.Cfg.Depth != 1 || d4.Cfg.Depth != 4 {
			t.Fatalf("depth axis %d, %d, want 1, 4", d1.Cfg.Depth, d4.Cfg.Depth)
		}
		if d1.UnicastMean <= d4.UnicastMean {
			t.Errorf("%s: depth 1 latency %.1f not above depth 4 latency %.1f",
				d1.Cfg.Model, d1.UnicastMean, d4.UnicastMean)
		}
	}
	for _, o := range outs {
		if o.UnicastMean <= 0 {
			t.Errorf("%s depth %d: no unicast samples", o.Cfg.Model, o.Cfg.Depth)
		}
	}
}

func TestBurstyComparison(t *testing.T) {
	_, outs := runStudy(t, "bursty", tinyOpts())
	for i := 0; i < len(outs); i += 2 {
		smooth, burst := outs[i], outs[i+1]
		if smooth.Cfg.Bursty() || !burst.Cfg.Bursty() || smooth.Cfg.Rate != burst.Cfg.Rate {
			t.Fatalf("pair %d is not smooth/bursty at one mean load: %+v / %+v", i/2, smooth.Cfg, burst.Cfg)
		}
		if smooth.UnicastCount == 0 || burst.UnicastCount == 0 {
			t.Errorf("%s: a pair point measured no unicast", smooth.Cfg.Model)
		}
	}
}

func TestHotspotComparison(t *testing.T) {
	_, outs := runStudy(t, "hotspot", tinyOpts())
	for i := 0; i < len(outs); i += 2 {
		uniform, hot := outs[i], outs[i+1]
		if hot.UnicastMean <= uniform.UnicastMean {
			t.Errorf("%s rate %.5f: hotspot unicast %.1f not above uniform %.1f",
				hot.Cfg.Model, hot.Cfg.Rate, hot.UnicastMean, uniform.UnicastMean)
		}
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
