package quarc_test

import (
	"runtime"
	"testing"

	"quarc"
)

// TestFabricStepSteadyStateAllocs is the allocation-regression guard behind
// the BenchmarkFabricStep allocs/op number: after warmup, stepping a loaded
// fabric must not allocate at all — the arbitration scratch, move buffers,
// source-queue descriptors and tracker states are all recycled. CI runs it by
// name.
func TestFabricStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs without -race")
	}
	fab, nodes, err := quarc.Build("quarc", 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Load every node with all three traffic classes, then warm up until
	// free lists and scratch buffers reach their steady-state capacity.
	mcastTargets := []int{5, 19, 33, 47} // reused: the send path must not need a fresh slice
	for i, nd := range nodes {
		nd.SendUnicast((i+7)%64, 16, 0)
		if i%8 == 0 {
			nd.SendBroadcast(16, 0)
		}
		if i%16 == 1 {
			nd.SendMulticast(mcastTargets, 16, 0)
		}
	}
	refill := func() {
		if fab.Tracker.InFlight() < 16 {
			for j, nd := range nodes {
				nd.SendUnicast((j+9)%64, 16, fab.Now())
				if j%16 == 2 {
					nd.SendMulticast(mcastTargets, 16, fab.Now())
				}
			}
		}
	}
	for i := 0; i < 2000; i++ {
		fab.Step()
		refill()
	}
	allocs := testing.AllocsPerRun(200, func() {
		fab.Step()
	})
	if allocs != 0 {
		t.Fatalf("Fabric.Step allocated %.1f times per cycle in steady state; want 0", allocs)
	}
}

// TestActivityCycleSteadyStateAllocs guards the activity scheduler's own
// machinery: draining a fabric to fully idle (every router sleeping),
// fast-forwarding the clock, waking nodes by enqueue and stepping back up
// must all run allocation-free once the free lists are warm — the
// sleep/wake churn is the low-load hot path the scheduler exists for.
func TestActivityCycleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs without -race")
	}
	fab, nodes, err := quarc.Build("quarc", 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	idleWake := func() {
		for !fab.Idle() {
			fab.Step()
		}
		fab.AdvanceIdle(100)
		for j, nd := range nodes {
			if j%16 == 0 {
				nd.SendUnicast((j+5)%64, 8, fab.Now())
			}
		}
		for !fab.Idle() {
			fab.Step()
		}
	}
	// Warm every free list and scratch buffer through a few full cycles.
	for i := 0; i < 50; i++ {
		idleWake()
	}
	if allocs := testing.AllocsPerRun(100, idleWake); allocs != 0 {
		t.Fatalf("idle/wake cycle allocated %.1f times in steady state; want 0", allocs)
	}
}

// TestBuildFootprint pins what a built fabric costs the host: a 32x32 mesh,
// the largest design point, in live heap bytes per node (measured across
// the build between two collections), and a 64-node Quarc in allocations.
// The switches of a fabric are one router.NewSet — each kind of switch state
// one array — a buffered flit is a 12-byte slot, and a port's bid, moves and
// credit and owner counters are packed, so the mesh stays under 2,150 bytes a
// node (2,092 measured) and the Quarc under 750 allocations. CI runs it by
// name.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs without -race")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fab, nodes, err := quarc.Build("mesh", 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(nodes))
	runtime.KeepAlive(fab)
	if perNode > 2150 {
		t.Errorf("a built mesh-1024 holds %d heap bytes per node, want <= 2,150", perNode)
	}
	t.Logf("mesh-1024: %d heap bytes per node", perNode)

	allocs := testing.AllocsPerRun(5, func() {
		fab, _, err := quarc.Build("quarc", 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		fab.Close()
	})
	if allocs > 750 {
		t.Errorf("building quarc-64 took %.0f allocations, want <= 750", allocs)
	}
	t.Logf("quarc-64: %.0f allocations", allocs)
}
