package experiments

import (
	"quarc/internal/rng"
	"reflect"
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
)

// threeModelSpec is the N-way panel of the acceptance criterion: the legacy
// pair plus the registry-only ring, with multicast traffic in the mix.
func threeModelSpec() PanelSpec {
	return PanelSpec{Figure: "t", Name: "nway", N: 8, MsgLen: 4, Beta: 0.1,
		Models:    []string{"quarc", "spidergon", "ring"},
		McastFrac: 0.2, McastSize: 3,
		Rates: []float64{0.004, 0.01}}
}

// TestPanelNWayParallelMatchesSerial extends the engine's core guarantee to
// arbitrary model sets with multicast traffic: the worker-pool sweep must be
// bit-identical to the sequential one.
func TestPanelNWayParallelMatchesSerial(t *testing.T) {
	for _, replicates := range []int{1, 2} {
		opts := tinyOpts()
		opts.Replicates = replicates
		opts.Workers = 4
		par, err := RunPanel(threeModelSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := runPanelSerial(threeModelSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, ser) {
			t.Fatalf("replicates=%d: parallel and serial N-way panels differ", replicates)
		}
		for _, name := range par.Models {
			for _, r := range par.Results[name] {
				if r.McastCount == 0 {
					t.Fatalf("%s: no multicasts completed; the sweep axis is vacuous", name)
				}
			}
		}
	}
}

// TestPanelModelOrderInvariance: each model's curve depends only on its own
// model-keyed seeds, so listing the models in a different order must leave
// every per-model result bit-identical.
func TestPanelModelOrderInvariance(t *testing.T) {
	opts := tinyOpts()
	opts.Replicates = 2
	fwd, err := RunPanel(threeModelSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rev := threeModelSpec()
	rev.Models = []string{"ring", "spidergon", "quarc"}
	bwd, err := RunPanel(rev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd.Results, bwd.Results) || !reflect.DeepEqual(fwd.Raw, bwd.Raw) {
		t.Fatal("model order changed per-model panel results")
	}
}

// TestPanelLegacyPairMatchesExplicitPair pins the compatibility contract: an
// explicit ["quarc","spidergon"] list simulates exactly the systems the
// legacy empty-Models panel does (same enum-derived seeds, same results) —
// only the spec label and cache key differ.
func TestPanelLegacyPairMatchesExplicitPair(t *testing.T) {
	opts := tinyOpts()
	legacy, err := RunPanel(sweepSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	explicit := sweepSpec()
	explicit.Models = []string{"quarc", "spidergon"}
	named, err := RunPanel(explicit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Results, named.Results) || !reflect.DeepEqual(legacy.Raw, named.Raw) {
		t.Fatal("explicit quarc/spidergon pair diverged from the legacy panel")
	}
	if !reflect.DeepEqual(legacy.Models, named.Models) {
		t.Fatalf("model lists differ: %v vs %v", legacy.Models, named.Models)
	}
}

// TestPointSeedDistinctAcrossModels: the name-keyed derivation must not collide
// with the frozen-index derivation of the original six (or itself across
// names), and both derivations stay pinned at the values sweeps have always
// simulated under.
func TestPointSeedDistinctAcrossModels(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range []string{"quarc", "spidergon", "mesh", "torus", "ring", "ring2", "hypercube"} {
		s := PointSeed(7, name, 0, 0)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, name)
		}
		seen[s] = name
	}
	for i, name := range []string{"quarc", "spidergon", "quarc-chainbcast", "quarc-1queue", "mesh", "torus"} {
		if got, ok := OriginalModelIndex(name); !ok || got != i {
			t.Fatalf("OriginalModelIndex(%q) = %d, %v; want %d (the table is frozen)", name, got, ok, i)
		}
		if PointSeed(7, name, 2, 1) != rng.Derive(7, uint64(i), 2, 1) {
			t.Fatalf("%s lost its index-based seed derivation", name)
		}
	}
	if _, ok := OriginalModelIndex("ring"); ok {
		t.Fatal("ring is not one of the original six")
	}
	// Recorded at the last commit that kept an enum-keyed and a name-keyed
	// derivation apart.
	if got := PointSeed(20090523, "mesh", 2, 1); got != 7802628737776969361 {
		t.Fatalf("mesh point seed drifted: %d", got)
	}
	if got := PointSeed(20090523, "ring", 2, 1); got != 254933590885505737 {
		t.Fatalf("ring point seed drifted: %d", got)
	}
}

// TestMulticastDeliveredCounts drives one explicit multicast through every
// registered model and checks the tracker accounting both the native (Quarc
// BRCP) and the fan-out emulation paths must satisfy: expected = distinct
// remote targets (duplicates and self ignored), exactly that many
// deliveries, no duplicate deliveries, nothing left in flight.
func TestMulticastDeliveredCounts(t *testing.T) {
	for _, name := range model.Names() {
		name := name
		m, _ := model.Lookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fab, nodes, err := m.Build(model.BuildConfig{N: m.ExampleN, Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			var recs []network.MessageRecord
			fab.Tracker.OnDone = func(r network.MessageRecord) { recs = append(recs, r) }
			// Targets spread across quadrants, with a duplicate and the
			// sender itself thrown in: 4 distinct remote targets.
			targets := []int{1, 3, m.ExampleN / 2, m.ExampleN - 1, 3, 0}
			nodes[0].SendMulticast(targets, 4, fab.Now())
			for i := 0; i < 20000 && fab.Tracker.InFlight() > 0; i++ {
				fab.Step()
			}
			if got := fab.Tracker.InFlight(); got != 0 {
				t.Fatalf("%d messages still in flight", got)
			}
			if len(recs) != 1 {
				t.Fatalf("completed %d messages, want 1", len(recs))
			}
			r := recs[0]
			if r.Class != network.ClassMulticast {
				t.Errorf("record class %v, want multicast", r.Class)
			}
			if r.Expected != 4 || r.Delivered != 4 {
				t.Errorf("expected/delivered = %d/%d, want 4/4", r.Expected, r.Delivered)
			}
			if dup := fab.Tracker.Duplicates(); dup != 0 {
				t.Errorf("%d duplicate deliveries", dup)
			}
		})
	}
}
