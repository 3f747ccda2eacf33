package service

import (
	"testing"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/traffic"
)

// TestCanonicalKeysUnchangedAcrossRegistryRefactor pins the cache keys of
// representative pre-registry requests to the exact SHA-256 values the
// pre-refactor code produced (recorded before the model registry, the
// Config.Model field and the traffic-shaping knobs were introduced). A
// change here means every deployed cache entry would be orphaned — treat it
// as a wire-format break, not a test to update casually.
func TestCanonicalKeysUnchangedAcrossRegistryRefactor(t *testing.T) {
	runCases := []struct {
		cfg  experiments.Config
		reps int
		want string
	}{
		{experiments.Config{Model: "quarc", N: 16, Rate: 0.01}, 3,
			"8f0c3c8f63cffa079b76e69a1b1c5cf80e79e545e78659a98260b9e1473803bd"},
		{experiments.Config{Model: "spidergon", N: 64, MsgLen: 32, Beta: 0.1, Rate: 0.004, Seed: 7}, 3,
			"ba2bc4d5c21407846e348bcde0a9c1c6c832938c7a259c7c5eede59a150c687a"},
		{experiments.Config{Model: "torus", N: 16, Rate: 0.02, Pattern: traffic.Hotspot, HotspotBias: 0.3, Depth: 8}, 3,
			"86fb86974e50d78359f25c4e81f5b7b90b5edb152fc1754d3e1f1de85cefb4c7"},
		{experiments.Config{Model: "quarc-1queue", N: 8, Rate: 0.005, Warmup: 100, Measure: 200, Drain: 300}, 3,
			"9cffdf53a37e7120205198ea7c5c2b2fa4c6418dbbc28b1ce4c1c39b468b36a5"},
		// A registry-only model, recorded at the last commit whose RunKey
		// hashed experiments.Config wholesale.
		{experiments.Config{Model: "ring", N: 16, Rate: 0.01}, 3,
			"5dea085b05351a950c7bc28913058fe9722073d3d0b6bcf61b35f058a30f0e80"},
		// The omitempty tail (bursty and multicast knobs), same provenance.
		{experiments.Config{Model: "mesh", N: 16, Rate: 0.01, BurstMeanOn: 40, BurstMeanOff: 120, McastFrac: 0.1, McastSize: 3}, 2,
			"e37fea166c653ed027d59a541b3be427715cb6802797ba73125f588218f7db2b"},
	}
	for i, c := range runCases {
		if got := RunKey(c.cfg, c.reps); got != c.want {
			t.Errorf("run case %d (%s): key drifted\n got %s\nwant %s", i, c.cfg.Model, got, c.want)
		}
	}

	// Model names are case-insensitive and default to quarc: every spelling
	// of the same model shares one key.
	for _, name := range []string{"", "Quarc"} {
		if got, want := RunKey(experiments.Config{Model: name, N: 16, Rate: 0.01}, 3), runCases[0].want; got != want {
			t.Errorf("model %q: key %s != canonical quarc key %s", name, got, want)
		}
	}

	spec := experiments.PanelSpec{Figure: "fig9", Name: "N=16 beta=5% M=16",
		N: 16, MsgLen: 16, Beta: 0.05, Rates: []float64{0.002, 0.004}}
	opts := experiments.RunOpts{Warmup: 500, Measure: 2500, Drain: 10000,
		Depth: 4, Seed: 20090523, Points: 5, Replicates: 2}
	if got, want := PanelKey(spec, opts), "05265f606992990fa4e2b28d7eb8618128f1d8df7ac1f2a6664f81bf0ac060b1"; got != want {
		t.Errorf("panel key drifted\n got %s\nwant %s", got, want)
	}
	if got, want := PanelKey(experiments.PanelSpec{N: 32}, experiments.DefaultOpts()),
		"cbda8e698199c1f36bcc62958e2b5cf6152fcaaea69c7eff403eb9ad858a3c61"; got != want {
		t.Errorf("default panel key drifted\n got %s\nwant %s", got, want)
	}

	// New knobs must change keys (no silent cache aliasing).
	burst := runCases[0].cfg
	burst.BurstMeanOn, burst.BurstMeanOff = 40, 120
	if RunKey(burst, 3) == runCases[0].want {
		t.Error("bursty run shares the smooth run's cache key")
	}
	ring := experiments.Config{Model: "ring", N: 16, Rate: 0.01}
	if RunKey(ring, 3) == runCases[0].want {
		t.Error("ring run shares the quarc run's cache key")
	}
	hot := spec
	hot.Pattern, hot.HotspotBias = traffic.Hotspot, 0.3
	if PanelKey(hot, opts) == PanelKey(spec, opts) {
		t.Error("hotspot panel shares the uniform panel's cache key")
	}
	mcast := runCases[0].cfg
	mcast.McastFrac, mcast.McastSize = 0.2, 4
	if RunKey(mcast, 3) == runCases[0].want {
		t.Error("multicast run shares the plain run's cache key")
	}
	nway := spec
	nway.Models = []string{"quarc", "spidergon", "ring"}
	if PanelKey(nway, opts) == PanelKey(spec, opts) {
		t.Error("N-way panel shares the legacy pair's cache key")
	}
	explicitPair := spec
	explicitPair.Models = []string{"quarc", "spidergon"}
	if PanelKey(explicitPair, opts) == PanelKey(spec, opts) {
		// The explicit pair simulates the same systems but echoes a models
		// field in its payload, so the cached bytes must not alias.
		t.Error("explicit quarc/spidergon panel shares the legacy pair's cache key")
	}
	mcastPanel := spec
	mcastPanel.McastFrac, mcastPanel.McastSize = 0.2, 4
	if PanelKey(mcastPanel, opts) == PanelKey(spec, opts) {
		t.Error("multicast panel shares the plain panel's cache key")
	}
}

// TestExploreKeyGolden pins the explore cache key the same way: the pinned
// hash is the wire contract for deployed explore cache entries, and the
// normalisation cases assert that spelling out a default never forks a key
// while changing any real knob always does.
func TestExploreKeyGolden(t *testing.T) {
	spec := explore.Spec{
		Models: []string{"quarc", "spidergon"},
		Ns:     []int{16},
		Rates:  []float64{0.005, 0.01},
		MsgLen: 16,
	}
	opts := experiments.RunOpts{Warmup: 500, Measure: 2500, Drain: 10000,
		Depth: 4, Seed: 20090523, Replicates: 2}
	const want = "3fad8fe0b3021645ad7caca785fe1a38e394e7c620fbe3505480daac0ca11d09"
	if got := ExploreKey(spec, opts); got != want {
		t.Errorf("explore key drifted\n got %s\nwant %s", got, want)
	}

	// Spelling out a default must not fork the key: the default message
	// length, the opts-depth axis, the default cost width and the empty
	// multicast axis all normalise onto the same bytes.
	elided := spec
	elided.MsgLen = 0
	if ExploreKey(elided, opts) != want {
		t.Error("eliding the default msglen forks the explore key")
	}
	explicitDepth := spec
	explicitDepth.Depths = []int{4}
	if ExploreKey(explicitDepth, opts) != want {
		t.Error("spelling out the default depth axis forks the explore key")
	}
	explicitWidth := spec
	explicitWidth.CostWidth = 32
	if ExploreKey(explicitWidth, opts) != want {
		t.Error("spelling out the default cost width forks the explore key")
	}

	// Any real knob must fork the key (no silent cache aliasing).
	forks := []struct {
		name   string
		mutate func(*explore.Spec, *experiments.RunOpts)
	}{
		{"model set", func(s *explore.Spec, _ *experiments.RunOpts) { s.Models = []string{"quarc"} }},
		{"sizes", func(s *explore.Spec, _ *experiments.RunOpts) { s.Ns = []int{32} }},
		{"rates", func(s *explore.Spec, _ *experiments.RunOpts) { s.Rates = []float64{0.005} }},
		{"depth axis", func(s *explore.Spec, _ *experiments.RunOpts) { s.Depths = []int{2, 4} }},
		{"mcast axis", func(s *explore.Spec, _ *experiments.RunOpts) { s.Mcast = []explore.McastKnob{{Frac: 0.2, Size: 4}} }},
		{"beta", func(s *explore.Spec, _ *experiments.RunOpts) { s.Beta = 0.05 }},
		{"pattern", func(s *explore.Spec, _ *experiments.RunOpts) { s.Pattern = traffic.Hotspot; s.HotspotBias = 0.3 }},
		{"cost width", func(s *explore.Spec, _ *experiments.RunOpts) { s.CostWidth = 64 }},
		{"seed", func(_ *explore.Spec, o *experiments.RunOpts) { o.Seed = 1 }},
		{"replicates", func(_ *explore.Spec, o *experiments.RunOpts) { o.Replicates = 3 }},
		{"cycle budget", func(_ *explore.Spec, o *experiments.RunOpts) { o.Measure = 5000 }},
	}
	for _, f := range forks {
		s2, o2 := spec, opts
		s2.Models = append([]string(nil), spec.Models...)
		s2.Ns = append([]int(nil), spec.Ns...)
		s2.Rates = append([]float64(nil), spec.Rates...)
		f.mutate(&s2, &o2)
		if ExploreKey(s2, o2) == want {
			t.Errorf("changing the %s does not change the explore key", f.name)
		}
	}

	// The explore keyspace must be disjoint from runs and panels even for
	// look-alike requests.
	if ExploreKey(spec, opts) == PanelKey(experiments.PanelSpec{N: 16, MsgLen: 16, Models: spec.Models, Rates: spec.Rates}, opts) {
		t.Error("explore key collides with a panel key")
	}
}
