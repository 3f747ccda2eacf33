package quarc_test

import (
	"testing"

	"quarc"
)

func TestPublicRunAPI(t *testing.T) {
	res, err := quarc.Run(quarc.Config{
		Model: "quarc", N: 16, MsgLen: 8, Beta: 0.1, Rate: 0.005,
		Warmup: 200, Measure: 1000, Drain: 6000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnicastCount == 0 || res.BcastCount == 0 {
		t.Fatalf("missing samples: %+v", res)
	}
	if res.Duplicates != 0 {
		t.Fatal("duplicate deliveries through the public API")
	}
}

func TestPublicFabricAPI(t *testing.T) {
	fab, nodes, err := quarc.Build("quarc", 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var done []quarc.MessageRecord
	fab.Tracker.OnDone = func(r quarc.MessageRecord) { done = append(done, r) }
	nodes[0].SendBroadcast(8, fab.Now())
	nodes[3].SendUnicast(9, 8, fab.Now())
	for i := 0; i < 10000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if len(done) != 2 {
		t.Fatalf("completed %d messages, want 2", len(done))
	}
}

func TestPublicBaselineBuilders(t *testing.T) {
	for _, name := range []string{"spidergon", "mesh"} {
		if _, nodes, err := quarc.Build(name, 16, 4); err != nil || len(nodes) != 16 {
			t.Fatalf("%s: %d nodes, %v", name, len(nodes), err)
		}
	}
	if _, _, err := quarc.Build("hypercube", 16, 4); err == nil {
		t.Fatal("an unregistered model built")
	}
}

func TestPublicCostAPI(t *testing.T) {
	if quarc.QuarcSwitchCost().Slices(32) != 1453 {
		t.Fatal("Table 1 calibration broken")
	}
	if quarc.SpidergonSwitchCost().Slices(32) != 1700 {
		t.Fatal("Spidergon calibration broken")
	}
	if len(quarc.Table1()) != 6 || len(quarc.Fig12()) != 3 {
		t.Fatal("table shapes wrong")
	}
}

func TestPublicPanelAPI(t *testing.T) {
	panels := quarc.Fig9Panels()
	if len(panels) != 3 {
		t.Fatal("Fig 9 panel count")
	}
	spec := panels[0]
	spec.Rates = []float64{0.004}
	pr, err := quarc.RunPanel(spec, quarc.RunOpts{
		Warmup: 200, Measure: 800, Drain: 4000, Depth: 4, Seed: 1, Points: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.UnicastSeries("quarc").Y) != 1 {
		t.Fatal("panel sweep incomplete")
	}
	if pr.Render() == "" {
		t.Fatal("panel render empty")
	}
}
