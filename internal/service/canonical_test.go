package service

import (
	"strings"
	"testing"

	"quarc/internal/experiments"
)

func TestRunKeyNormalisesDefaults(t *testing.T) {
	sparse := experiments.Config{Model: "quarc", N: 16, Rate: 0.01, Seed: 1}
	explicit := sparse
	explicit.MsgLen, explicit.Depth = 16, 4
	explicit.Warmup, explicit.Measure, explicit.Drain = 2000, 10000, 20000
	if RunKey(sparse, 1) != RunKey(explicit, 1) {
		t.Fatal("spelling out the defaults changed the cache key")
	}
	// Like the sweep worker count, the intra-point step-worker count only
	// changes wall-clock time, so it must share the cache entry.
	stepped := sparse
	stepped.StepWorkers = 8
	if RunKey(sparse, 1) != RunKey(stepped, 1) {
		t.Fatal("step-worker count changed the run cache key")
	}
}

func TestRunKeySeparatesInputs(t *testing.T) {
	base := experiments.Config{Model: "quarc", N: 16, Rate: 0.01, Seed: 1}
	keys := map[string]string{"base": RunKey(base, 1)}
	add := func(name string, cfg experiments.Config, reps int) {
		k := RunKey(cfg, reps)
		for prev, pk := range keys {
			if pk == k {
				t.Fatalf("%s collides with %s", name, prev)
			}
		}
		keys[name] = k
	}
	seed := base
	seed.Seed = 2
	add("seed", seed, 1)
	rate := base
	rate.Rate = 0.02
	add("rate", rate, 1)
	topo := base
	topo.Model = "spidergon"
	add("topo", topo, 1)
	add("replicates", base, 3)
	if RunKey(base, 0) != RunKey(base, 1) {
		t.Fatal("replicates 0 and 1 must share a key (both mean one run)")
	}
}

func TestPanelKeyIgnoresExecutionKnobs(t *testing.T) {
	spec := experiments.PanelSpec{N: 16, MsgLen: 16, Beta: 0.05}
	opts := experiments.RunOpts{Warmup: 100, Measure: 400, Drain: 4000, Depth: 4, Seed: 9, Points: 5}
	workers := opts
	workers.Workers = 7
	withCb := opts
	withCb.OnPointDone = func(experiments.PointDone) {}
	if PanelKey(spec, opts) != PanelKey(spec, workers) {
		t.Fatal("worker count changed the panel key")
	}
	if PanelKey(spec, opts) != PanelKey(spec, withCb) {
		t.Fatal("progress callback changed the panel key")
	}
	stepped := opts
	stepped.StepWorkers = 8
	if PanelKey(spec, opts) != PanelKey(spec, stepped) {
		t.Fatal("step-worker count changed the panel key")
	}
	// Labels are echoed in the payload, so they must change the key: a
	// request must never receive bytes carrying another request's labels.
	labelled := spec
	labelled.Figure, labelled.Name = "fig9", "panel A"
	if PanelKey(spec, opts) == PanelKey(labelled, opts) {
		t.Fatal("labels must change the panel key")
	}
	seeded := opts
	seeded.Seed = 10
	if PanelKey(spec, opts) == PanelKey(spec, seeded) {
		t.Fatal("seed must change the panel key")
	}
	// With explicit rates the Points grid size is ignored by the sweep, so
	// it must not split the cache either.
	explicit := spec
	explicit.Rates = []float64{0.002, 0.004}
	repointed := opts
	repointed.Points = 99
	if PanelKey(explicit, opts) != PanelKey(explicit, repointed) {
		t.Fatal("Points changed the key despite explicit rates")
	}
	if PanelKey(spec, opts) == PanelKey(spec, repointed) {
		t.Fatal("Points must change the key when rates are derived")
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2) // two one-byte payloads fit, a third evicts
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.Put("c", []byte("3")) // over budget: evicts b, not a
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || string(v) != "3" {
		t.Fatalf("c = %q, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	if c.Bytes() != 2 {
		t.Fatalf("bytes %d, want 2", c.Bytes())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	c.Put("c", []byte("3b")) // update in place; a (LRU) pays for the growth
	if v, _ := c.Get("c"); string(v) != "3b" {
		t.Fatalf("update lost: %q", v)
	}
	if _, ok := c.get("a", false); ok {
		t.Fatal("a should have been evicted to fit c's growth")
	}
	if c.Bytes() != 2 || c.Len() != 1 {
		t.Fatalf("bytes=%d len=%d after growth, want 2 and 1", c.Bytes(), c.Len())
	}
}

func TestStoreEvictsTerminalJobs(t *testing.T) {
	var evicted []string
	s := NewStore(2, func(j *Job) { evicted = append(evicted, j.ID) }, nil, nil)
	a := s.Add("run", "k1", nil)
	a.setState(StateDone, "")
	b := s.Add("run", "k2", nil)
	_ = b // still queued (live)
	s.Add("run", "k3", nil)
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("terminal job should have been evicted")
	}
	if _, ok := s.Get(b.ID); !ok {
		t.Fatal("live job must never be evicted")
	}
	if got := len(s.List()); got != 2 {
		t.Fatalf("store holds %d jobs, want 2", got)
	}
	if len(evicted) != 1 || evicted[0] != a.ID {
		t.Fatalf("onEvict saw %v, want [%s]", evicted, a.ID)
	}
}

func TestParseRoundTrips(t *testing.T) {
	// The six original wire names must keep resolving, in any case, and ""
	// means quarc.
	for _, name := range []string{"quarc", "spidergon", "quarc-chainbcast",
		"quarc-1queue", "mesh", "torus"} {
		got, err := ParseModel(strings.ToUpper(name))
		if err != nil {
			t.Fatal(err)
		}
		if got != name {
			t.Fatalf("model %q round-trips to %q", name, got)
		}
	}
	if got, err := ParseModel(""); err != nil || got != "quarc" {
		t.Fatalf("empty model name resolves to %q, %v; want quarc", got, err)
	}
	// Every registered model resolves through ParseModel and is listed.
	listed := map[string]bool{}
	for _, m := range Models() {
		listed[m.Name] = true
		got, err := ParseModel(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != m.Name {
			t.Fatalf("model %q canonicalises to %q", m.Name, got)
		}
	}
	if !listed["ring"] {
		t.Fatal("registry-only model missing from Models()")
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("bogus model accepted")
	}
}
