package experiments

import (
	"reflect"
	"testing"

	"quarc/internal/model"
)

// registryCfg is the shared invariant-suite configuration for one model:
// small enough to run for every registered model, live enough to exercise
// broadcasts, multicasts and contention.
func registryCfg(name string, exampleN int) Config {
	return Config{Model: name, N: exampleN, MsgLen: 8, Beta: 0.05, Rate: 0.006,
		McastFrac: 0.1, McastSize: 3,
		Depth: 4, Warmup: 200, Measure: 1200, Drain: 20000, Seed: 77}
}

// TestRegistryModelsDeterministic runs every registered model through the
// replicated sweep engine and asserts the two determinism contracts the
// service relies on: the same seed gives bit-identical results, and the
// worker count never changes a single output bit (parallel == serial).
// Models registered later inherit the suite with no edits here.
func TestRegistryModelsDeterministic(t *testing.T) {
	for _, name := range model.Names() {
		name := name
		m, _ := model.Lookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := registryCfg(name, m.ExampleN)

			serialAgg, serialReps, err := RunReplicated(cfg, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			parAgg, parReps, err := RunReplicated(cfg, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialAgg, parAgg) {
				t.Errorf("parallel aggregate differs from serial:\nserial %+v\nparallel %+v",
					serialAgg, parAgg)
			}
			if !reflect.DeepEqual(serialReps, parReps) {
				t.Error("parallel replicate results differ from serial")
			}

			again, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			once, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(once, again) {
				t.Errorf("same seed, different results:\n%+v\n%+v", once, again)
			}
			if once.UnicastCount == 0 {
				t.Error("no unicast samples; the determinism check is vacuous")
			}
			if once.McastCount == 0 {
				t.Error("no multicast samples; the multicast leg of the check is vacuous")
			}
		})
	}
}

// TestRegistryModelSelection: the registry name is the only model selector.
// WithDefaults canonicalises it (lower-case, "quarc" when empty) for original
// and later models alike.
func TestRegistryModelSelection(t *testing.T) {
	c := Config{Model: "Spidergon", N: 8}.WithDefaults()
	if c.Model != "spidergon" {
		t.Fatalf("model name not canonicalised: %+v", c)
	}
	if c = (Config{N: 8}).WithDefaults(); c.Model != "quarc" {
		t.Fatalf("empty model did not default to quarc: %+v", c)
	}
	c = Config{Model: "ring", N: 8}.WithDefaults()
	if c.Model != "ring" {
		t.Fatalf("registry-only model lost its name: %+v", c)
	}
	if got := c.ModelName(); got != "ring" {
		t.Fatalf("ModelName() = %q, want ring", got)
	}
	if got := (Config{Model: "torus"}).ModelName(); got != "torus" {
		t.Fatalf("ModelName() = %q, want torus", got)
	}
	if _, _, err := build(Config{Model: "no-such-model", N: 16, Depth: 4}); err == nil {
		t.Fatal("build accepted an unknown model")
	}
}

// TestBurstyConfigRuns checks the end-to-end bursty knobs: a bursty run
// completes, is deterministic, and differs from the smooth run at the same
// mean load; invalid combinations are rejected.
func TestBurstyConfigRuns(t *testing.T) {
	base := Config{Model: "quarc", N: 16, MsgLen: 8, Rate: 0.01,
		Depth: 4, Warmup: 200, Measure: 2000, Drain: 20000, Seed: 5}
	smooth, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := base
	bcfg.BurstMeanOn, bcfg.BurstMeanOff = 40, 120
	burst, err := Run(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	burst2, err := Run(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(burst, burst2) {
		t.Error("bursty run is not deterministic")
	}
	if burst.UnicastCount == 0 {
		t.Fatal("bursty run measured no unicasts")
	}
	if burst.UnicastMean == smooth.UnicastMean {
		t.Error("bursty and smooth runs are identical; the knobs did nothing")
	}

	bad := bcfg
	bad.Pattern = 1 // hotspot
	if _, err := Run(bad); err == nil {
		t.Error("bursty + non-uniform pattern accepted")
	}
	bad = bcfg
	bad.BurstMeanOff = 0
	if _, err := Run(bad); err == nil {
		t.Error("bursty with only one knob set accepted")
	}
	bad = bcfg
	bad.BurstMeanOn, bad.BurstMeanOff = -40, -120
	if _, err := Run(bad); err == nil {
		t.Error("negative burst knobs accepted")
	}
	bad = bcfg
	bad.Rate = 0.9 // on-rate would exceed 1
	if _, err := Run(bad); err == nil {
		t.Error("bursty with infeasible on-rate accepted")
	}
}
