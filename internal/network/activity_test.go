package network_test

// Fabric-level tests of the activity scheduler mechanics: sleeping drained
// routers, waking on enqueue and on link push, bulk idle accounting, and the
// AdvanceIdle fast-forward. The end-to-end bit-identity proof lives in the
// experiment layer's registry-driven suite; these pin the mechanism.

import (
	"testing"

	"quarc/internal/network"
	"quarc/internal/quarc"
)

func buildQuarc(t *testing.T, n int) (*network.Fabric, []*quarc.Transceiver) {
	t.Helper()
	fab, ts, err := quarc.Build(quarc.Config{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fab, ts
}

func TestFabricSleepsWhenDrained(t *testing.T) {
	const n = 8
	fab, ts := buildQuarc(t, n)
	if fab.ActiveNodes() != n {
		t.Fatalf("fresh fabric has %d active nodes, want %d", fab.ActiveNodes(), n)
	}
	fab.Step()
	if fab.ActiveNodes() != 0 || !fab.Idle() {
		t.Fatalf("empty fabric kept %d nodes active after one step", fab.ActiveNodes())
	}

	// An enqueue wakes exactly the sender; deliveries wake receivers as the
	// packet moves, and the fabric drains back to fully idle.
	ts[0].SendUnicast(3, 4, fab.Now())
	if fab.ActiveNodes() != 1 {
		t.Fatalf("enqueue woke %d nodes, want 1", fab.ActiveNodes())
	}
	for i := 0; i < 100 && !fab.Idle(); i++ {
		fab.Step()
	}
	if !fab.Idle() {
		t.Fatal("fabric did not drain back to idle")
	}
	if fab.Tracker.Completed() != 1 {
		t.Fatalf("completed %d messages, want 1", fab.Tracker.Completed())
	}
	// Activity accounting must reconstruct every-cycle per-router cycle counts.
	if st := fab.RouterStats(); st.Cycles != uint64(n)*uint64(fab.Now()) {
		t.Fatalf("router cycle integral %d, want %d (N=%d x %d cycles)",
			st.Cycles, uint64(n)*uint64(fab.Now()), n, fab.Now())
	}
}

func TestAdvanceIdleAccountsBulkCycles(t *testing.T) {
	const n = 8
	fab, ts := buildQuarc(t, n)
	fab.Step() // everyone sleeps
	before := fab.Now()
	fab.AdvanceIdle(10_000)
	if fab.Now() != before+10_000 {
		t.Fatalf("Now = %d after advance, want %d", fab.Now(), before+10_000)
	}
	if st := fab.RouterStats(); st.Cycles != uint64(n)*uint64(fab.Now()) {
		t.Fatalf("router cycle integral %d after idle advance, want %d",
			st.Cycles, uint64(n)*uint64(fab.Now()))
	}
	// The fabric must still work normally after a fast-forward.
	ts[2].SendUnicast(5, 4, fab.Now())
	for i := 0; i < 100 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if fab.Tracker.Completed() != 1 {
		t.Fatal("message did not complete after idle advance")
	}
}

func TestAdvanceIdleRefusesBusyFabric(t *testing.T) {
	fab, ts := buildQuarc(t, 8)
	ts[0].SendUnicast(1, 4, 0)
	fab.Step() // flits in flight: not every router is asleep
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceIdle on a busy fabric did not panic")
		}
	}()
	fab.AdvanceIdle(10)
}

// TestSleepNeedsNoCreditRefresh pins what sender-side counters buy the
// scheduler: credits move only when a flit or a pop crosses a link, so a
// router that drains and sleeps leaves every upstream counter exact with no
// refresh on the way out (the occupancy snapshots these counters replaced went
// stale the moment their owner stopped stepping).
func TestSleepNeedsNoCreditRefresh(t *testing.T) {
	fab, ts := buildQuarc(t, 8)
	chk := network.NewInvariantChecker(fab)
	// Stream a packet from 0 to its clockwise neighbour 1 and drain fully.
	ts[0].SendUnicast(1, 4, 0)
	for i := 0; i < 100 && !fab.Idle(); i++ {
		if err := chk.StepChecked(); err != nil { // I5 at every cycle boundary
			t.Fatal(err)
		}
	}
	if !fab.Idle() {
		t.Fatal("did not drain")
	}
	// Every lane is empty and every router asleep, so I5 (credit + buffered
	// == depth on every link) now says every counter is back at full depth.
	if err := chk.Check(); err != nil {
		t.Fatal(err)
	}
}
