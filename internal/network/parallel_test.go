package network_test

// Mechanism tests for StepBatch and the worker pool: the stop hook must act
// between cycles exactly as a caller's own per-Step loop would, whether the
// cycles run serially, on the pool one dispatch per cycle, or batched many
// cycles per dispatch. The end-to-end bit-identity matrix lives in the
// experiment layer's registry-driven suite.

import (
	"reflect"
	"testing"

	"quarc/internal/mesh"
	"quarc/internal/network"
	"quarc/internal/trace"
)

// buildMesh returns a w x h mesh: the pool needs a full 64-node activeMask
// word per worker, so its tests run on fabrics of 128 nodes and up.
func buildMesh(t *testing.T, w, h int) (*network.Fabric, []*mesh.Adapter) {
	t.Helper()
	fab, as, err := mesh.Build(mesh.Config{W: w, H: h, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fab, as
}

// referenceCycles runs the caller's own stop-checked loop: test before every
// cycle, step while work remains.
func referenceCycles(fab *network.Fabric) int64 {
	var n int64
	for fab.Tracker.InFlight() > 0 {
		fab.Step()
		n++
	}
	return n
}

func TestStepBatchStopMatchesPerStepLoop(t *testing.T) {
	// A packet from the first shard's corner to the second shard's: it
	// crosses the shard boundary on the way.
	const w, h, dst = 16, 8, 16*8 - 1
	ref, refAs := buildMesh(t, w, h)
	refAs[0].SendUnicast(dst, 12, 0)
	want := referenceCycles(ref)
	if want == 0 {
		t.Fatal("reference run did no work")
	}

	for _, tc := range []struct {
		name  string
		setup func(f *network.Fabric)
	}{
		{"serial", func(f *network.Fabric) {}},
		{"pool", func(f *network.Fabric) {
			f.SetStepWorkers(2)
			f.SetStepGrain(1)
		}},
		{"pool-batched", func(f *network.Fabric) {
			// Dense mode keeps every node in the step set: the one dispatch
			// covers the whole run, and the stop hook must still fire
			// between its cycles.
			f.SetDense(true)
			f.SetStepWorkers(2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, as := buildMesh(t, w, h)
			tc.setup(fab)
			defer fab.Close()
			as[0].SendUnicast(dst, 12, 0)
			got := fab.StepBatch(1_000, func() bool { return fab.Tracker.InFlight() == 0 })
			if got != want {
				t.Fatalf("StepBatch ran %d cycles, per-Step loop ran %d", got, want)
			}
			if fab.Now() != ref.Now() {
				t.Fatalf("clock at %d, reference at %d", fab.Now(), ref.Now())
			}
			if fab.Tracker.Completed() != 1 {
				t.Fatalf("completed %d messages, want 1", fab.Tracker.Completed())
			}
		})
	}
}

func TestStepBatchHonoursBudget(t *testing.T) {
	fab, ts := buildQuarc(t, 8)
	defer fab.Close()
	ts[0].SendUnicast(3, 12, 0)
	if got := fab.StepBatch(3, nil); got != 3 {
		t.Fatalf("StepBatch(3) ran %d cycles", got)
	}
	if fab.Now() != 3 {
		t.Fatalf("clock at %d after a 3-cycle batch", fab.Now())
	}
	// A stop that is already true runs nothing.
	if got := fab.StepBatch(10, func() bool { return true }); got != 0 {
		t.Fatalf("StepBatch with an immediately-true stop ran %d cycles", got)
	}
}

// TestTracedFabricStepsSerially: the trace records the serial event order
// (per move: deliver, then forward), which the pool's deliver-then-link
// phases would reorder — so a fabric with Trace set keeps to the serial path
// whatever pool it was given, and records exactly what a serial fabric does.
func TestTracedFabricStepsSerially(t *testing.T) {
	run := func(pooled bool) []trace.Event {
		fab, as := buildMesh(t, 16, 16)
		defer fab.Close()
		fab.Trace = trace.NewBuffer(1 << 16)
		if pooled {
			fab.SetStepWorkers(4)
			fab.SetStepGrain(1)
		}
		for i, a := range as {
			a.SendUnicast((i+137)%len(as), 6, 0) // every shard boundary is crossed
		}
		fab.StepBatch(2_000, func() bool { return fab.Tracker.InFlight() == 0 })
		if fab.Tracker.InFlight() != 0 {
			t.Fatal("did not drain")
		}
		return fab.Trace.Events()
	}
	serial, pooled := run(false), run(true)
	if len(serial) == 0 {
		t.Fatal("serial run traced nothing")
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("traced fabric with a pool recorded %d events, serial fabric %d, or in another order",
			len(pooled), len(serial))
	}
}
