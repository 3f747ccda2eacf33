package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quarc/internal/service"
)

// These tests spawn no daemon and simulate nothing: they pin the arithmetic
// the reported numbers rest on.

func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
	if got, err := percentile(durs(1000), 0.99); err != nil || got != 990*time.Millisecond {
		t.Fatalf("p99 of 1000 = %v, %v; want 990ms", got, err)
	}
	if _, err := percentile(durs(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 samples beyond it")
	}
	// The median is never refused, even of one sample.
	if got, err := percentile(durs(1), 0.5); err != nil || got != time.Millisecond {
		t.Fatalf("median of 1 = %v, %v", got, err)
	}
	if got, _ := percentile(durs(9), 0.5); got != 5*time.Millisecond {
		t.Fatalf("median of 9 = %v; want 5ms", got)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestEndToEndTailFallsBackToMedian(t *testing.T) {
	r := newReport("x")
	r.setups = []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	for i := 0; i < 3; i++ {
		r.windows = append(r.windows, window{wall: 2 * time.Second, primary: time.Second, ops: 10, lat: durs(9)})
	}
	m := r.endToEnd()
	if m["latency_p99_ms"].Value != m["latency_p50_ms"].Value || m["latency_p50_ms"].Value != 5 {
		t.Fatalf("p50 %v p99 %v; want both 5 ms", m["latency_p50_ms"].Value, m["latency_p99_ms"].Value)
	}
	if m["setup_s"].Value != 2 || m["wall_s"].Value != 2 || m["ops_per_s"].Value != 10 {
		t.Fatalf("setup %v wall %v ops/s %v", m["setup_s"].Value, m["wall_s"].Value, m["ops_per_s"].Value)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a: cover is 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // clipped to the parent's end
		{ID: 4, Parent: 2, Name: "grandchild", Start: 25 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 10 * ms, 30 * ms, 20 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	ran := false
	tr.in("x", -1, 0, func() { ran = true })
	if id := tr.start("y", -1, 0); id != -1 || !ran || tr.all() != nil {
		t.Fatalf("nil tracer: id %d ran %v spans %v", id, ran, tr.all())
	}
	tr.end(-1)

	live := newTracer()
	root := live.start("root", -1, 7)
	live.in("child", root, 7, func() {})
	live.end(root)
	s := live.all()
	if len(s) != 2 || s[1].Parent != root || s[1].Req != 7 || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := writeSpans(path, s); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if lines := bytes.Count(b, []byte("\n")); lines != 2 || !bytes.Contains(b, []byte(`"self_ns"`)) {
		t.Fatalf("trace file: %d lines: %s", lines, b)
	}
}

func runSeed(t *testing.T, body []byte) uint64 {
	t.Helper()
	var rr service.RunRequest
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Workers != 0 || rr.StepWorkers != 0 || rr.Seed == 0 {
		t.Fatalf("request %s sets an execution knob or no seed", body)
	}
	return rr.Seed
}

func TestGeneratorsAreSeeded(t *testing.T) {
	// Same seed: the identical request stream, byte for byte.
	a, b := runBodies(1, tagCold, 500), runBodies(1, tagCold, 500)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
	if x, y := hotStream(1, 4000), hotStream(1, 4000); !equalInts(x, y) {
		t.Fatal("hot draw differs between two generations from one seed")
	}
	if !bytes.Equal(exploreBody(1, 2, 1, exploreNs), exploreBody(1, 2, 1, exploreNs)) {
		t.Fatal("explore body differs between two generations from one seed")
	}

	// Different seed, or a different generator under one seed: disjoint keys.
	seen := make(map[uint64]string)
	for name, bodies := range map[string][][]byte{
		"cold seed 1": a, "cold seed 2": runBodies(2, tagCold, 500),
		"hot pool seed 1": runBodies(1, tagHotPool, hotPoolSize), "warm seed 1": runBodies(1, tagWarm, durableWarm),
	} {
		for _, body := range bodies {
			s := runSeed(t, body)
			if prev, dup := seen[s]; dup {
				t.Fatalf("simulation seed %#x generated by both %q and %q", s, prev, name)
			}
			seen[s] = name
		}
	}
	if equalInts(hotStream(1, 4000), hotStream(2, 4000)) {
		t.Fatal("hot draw identical under two seeds")
	}
	hit := make(map[int]bool)
	for _, k := range hotStream(1, hotWindow) {
		if k < 0 || k >= hotPoolSize {
			t.Fatalf("draw %d outside the pool", k)
		}
		hit[k] = true
	}
	if len(hit) != hotPoolSize {
		t.Fatalf("a window touches %d of %d hot keys", len(hit), hotPoolSize)
	}
}

func TestExploreLatticesOverlap(t *testing.T) {
	parse := func(shift int) service.ExploreRequest {
		var er service.ExploreRequest
		if err := json.Unmarshal(exploreBody(3, 5, shift, exploreNs), &er); err != nil {
			t.Fatal(err)
		}
		return er
	}
	a, b := parse(0), parse(1)
	points := len(a.Models) * len(a.Ns) * len(a.Rates) * len(a.Depths)
	if points != explorePoints || a.Opts.Workers != 0 || a.Opts.Seed != b.Opts.Seed {
		t.Fatalf("lattice has %d points, workers %d, seeds %d/%d", points, a.Opts.Workers, a.Opts.Seed, b.Opts.Seed)
	}
	shared := 0
	for _, x := range a.Rates {
		for _, y := range b.Rates {
			if x == y {
				shared++
			}
		}
	}
	if got := shared * points / len(a.Rates); got != exploreShared {
		t.Fatalf("lattices share %d points, want %d", got, exploreShared)
	}
}

func TestChainIsOrderSensitive(t *testing.T) {
	var ab, ba, ab2 chain
	ab.fold([]byte("a"))
	ab.fold([]byte("b"))
	ba.fold([]byte("b"))
	ba.fold([]byte("a"))
	ab2.fold([]byte("a"))
	ab2.fold([]byte("b"))
	if ab == ba || ab != ab2 || len(ab.hex()) != 64 {
		t.Fatalf("chain digests: ab %s ba %s", ab.hex(), ba.hex())
	}
}

func TestContractWorkloads(t *testing.T) {
	// Tests run in bench/; the contract is read from the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench")
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range c.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	// The disk-bound workload is measured but must not be judged by a bound.
	if c.bounded("serve_durable") || !c.bounded("serve_hot") || len(c.Workloads) != len(workloads)-1 {
		t.Fatalf("bounded workloads: %+v", c.Workloads)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
