package network_test

// Mechanism tests for StepBatch and the worker pool: the batch hook must act
// between cycles exactly as a caller's own per-Step loop would, whether the
// cycles run serially, on the pool one dispatch per cycle, or batched many
// cycles per dispatch. The end-to-end bit-identity matrix lives in the
// experiment layer's registry-driven suite.

import (
	"fmt"
	"reflect"
	"testing"

	"quarc/internal/mesh"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/trace"
)

// buildMesh returns a w x h mesh: the pool needs a full 64-node activeMask
// word per worker, so its tests run on fabrics of 128 nodes and up.
func buildMesh(t *testing.T, w, h int) (*network.Fabric, []*network.BaseAdapter) {
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
		// dispatches, when set, is the pool dispatches the run must take.
		dispatches uint64
	}{
		{"serial", func(f *network.Fabric) {}, 0},
		{"pool", func(f *network.Fabric) {
			f.SetStepWorkers(2)
			f.SetStepGrain(1)
		}, 0},
		{"pool-batched", func(f *network.Fabric) {
			// At grain 1 the packet's nodes keep the pool engaged: the one
			// dispatch covers the whole run, and the stop hook must still
			// fire between its cycles.
			f.SetStepWorkers(2)
			f.SetStepGrain(1)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, as := buildMesh(t, w, h)
			tc.setup(fab)
			defer fab.Close()
			as[0].SendUnicast(dst, 12, 0)
			before := network.PoolDispatches()
			got := fab.StepBatch(1_000, func() bool { return fab.Tracker.InFlight() == 0 })
			if d := network.PoolDispatches() - before; tc.dispatches != 0 && d != tc.dispatches {
				t.Fatalf("%d pool dispatches, want %d", d, tc.dispatches)
			}
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

// TestStepBatchHookMayEnqueue pins the hook's contract: it may enqueue
// traffic between cycles, and the batch then simulates exactly what a
// Step-per-cycle loop making the same enqueues does — on the pool too, where
// the hook runs in worker 0's closing section while the helpers wait, so one
// dispatch covers the stretch. A 16x16 mesh takes a unicast before every one
// of its first 120 cycles and a software broadcast before every ninth, from
// nodes spread over every shard; every router's statistics, every tracker
// record and every delivered flit must match the reference loop.
func TestStepBatchHookMayEnqueue(t *testing.T) {
	const w, h, sendUntil, budget = 16, 16, 120, 5_000
	type outcome struct {
		stats   []router.Stats
		records []network.MessageRecord
		got     [][]delivery
		now     int64
	}
	run := func(t *testing.T, workers int, batched bool) outcome {
		fab, as := buildMesh(t, w, h)
		defer fab.Close()
		fab.SetStepWorkers(workers)
		fab.SetStepGrain(1)
		n := len(as)
		recs := make([]*recordingAdapter, n)
		for node, a := range as {
			recs[node] = &recordingAdapter{BaseAdapter: a}
			fab.SetAdapter(node, recs[node])
		}
		var out outcome
		fab.Tracker.OnDone = func(r network.MessageRecord) { out.records = append(out.records, r) }
		// between enqueues cycle now's traffic and reports whether the run is
		// over; the batch and the Step loop each call it once before every
		// cycle.
		between := func() bool {
			now := fab.Now()
			if now < sendUntil {
				src := int(now*37) % n
				as[src].SendUnicast((src+n/2+int(now))%n, 6, now)
				if now%9 == 4 {
					as[(src+101)%n].SendBroadcast(4, now)
				}
			}
			return now >= sendUntil && fab.Tracker.InFlight() == 0
		}
		if batched {
			fab.StepBatch(budget, between)
		} else {
			for !between() && fab.Now() < budget {
				fab.Step()
			}
		}
		if fab.Tracker.InFlight() != 0 {
			t.Fatalf("%d messages in flight at cycle %d", fab.Tracker.InFlight(), fab.Now())
		}
		fab.SyncStats()
		for node, r := range fab.Routers {
			out.stats = append(out.stats, r.Stats())
			out.got = append(out.got, recs[node].got)
		}
		out.now = fab.Now()
		return out
	}

	want := run(t, 1, false)
	if len(want.records) < sendUntil {
		t.Fatalf("reference completed %d messages, want at least %d", len(want.records), sendUntil)
	}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			before := network.PoolDispatches()
			got := run(t, workers, true)
			dispatched := network.PoolDispatches() - before
			if got.now != want.now {
				t.Fatalf("batch ended at cycle %d, reference at %d", got.now, want.now)
			}
			if !reflect.DeepEqual(got.records, want.records) {
				t.Fatalf("tracker records differ from the reference loop's (%d vs %d)", len(got.records), len(want.records))
			}
			for node := range want.stats {
				if got.stats[node] != want.stats[node] {
					t.Fatalf("router %d stats %+v, reference %+v", node, got.stats[node], want.stats[node])
				}
				if !reflect.DeepEqual(got.got[node], want.got[node]) {
					t.Fatalf("node %d received %d flits, reference %d, or others", node, len(got.got[node]), len(want.got[node]))
				}
			}
			if workers > 1 && dispatched*10 > uint64(got.now) {
				t.Errorf("%d dispatches for %d cycles: the hook's enqueues should not end a dispatch", dispatched, got.now)
			}
		})
	}
}
