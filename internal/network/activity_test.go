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
	// Activity accounting must reconstruct dense per-router cycle counts.
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

func TestSetDenseKeepsEveryNodeActive(t *testing.T) {
	const n = 8
	fab, _ := buildQuarc(t, n)
	fab.SetDense(true)
	for i := 0; i < 5; i++ {
		fab.Step()
	}
	if fab.ActiveNodes() != n {
		t.Fatalf("dense fabric slept nodes: %d active, want %d", fab.ActiveNodes(), n)
	}
	if got := fab.SteppedRouters(); got != uint64(n*5) {
		t.Fatalf("dense stepped %d router-steps, want %d", got, n*5)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetDense after stepping did not panic")
		}
	}()
	fab.SetDense(false)
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

// TestDeliveryCallbackEnqueuesAtSleepingNode: a delivery callback (the
// tracker's OnDone, fired in the cycle's ordered deliver half) that enqueues
// a packet at another, idle-sleeping node. The reply is delivered and every
// flit is accounted for, under dense and activity stepping alike; and the
// one known difference between them is pinned: dense stepping feeds the
// woken node in the callback's own cycle, activity stepping one cycle later
// (an idle sleeper is woken for the next cycle; a blocked one would be fed in
// the same cycle).
func TestDeliveryCallbackEnqueuesAtSleepingNode(t *testing.T) {
	const n, m = 16, 8
	run := func(dense bool) (replyGen, replyDone int64) {
		fab, ts := buildQuarc(t, n)
		fab.SetDense(dense)
		request := ts[0].SendUnicast(5, m, fab.Now()) // 0 -> 8 -> 7 -> 6 -> 5: node 9 stays idle
		var reply uint64
		fab.Tracker.OnDone = func(r network.MessageRecord) {
			switch r.MsgID {
			case request:
				replyGen = fab.Now()
				reply = ts[9].SendUnicast(12, m, replyGen)
			case reply:
				replyDone = r.Last
			}
		}
		for i := 0; i < 1000 && (reply == 0 || fab.Tracker.InFlight() > 0); i++ {
			fab.Step()
		}
		if fab.Tracker.InFlight() != 0 || fab.Tracker.Completed() != 2 || replyDone == 0 {
			t.Fatalf("dense=%v: %d completed, %d in flight", dense, fab.Tracker.Completed(), fab.Tracker.InFlight())
		}
		if got := fab.FlitsDelivered(); got != 2*m {
			t.Fatalf("dense=%v: %d flits delivered, want %d", dense, got, 2*m)
		}
		if live := fab.Packets.Live(); live != 0 {
			t.Fatalf("dense=%v: %d packets left in the table", dense, live)
		}
		return replyGen, replyDone
	}
	denseGen, denseDone := run(true)
	gen, done := run(false)
	if gen != denseGen {
		t.Fatalf("the callback ran at cycle %d under activity stepping, %d under dense", gen, denseGen)
	}
	if done != denseDone+1 {
		t.Fatalf("reply completed at cycle %d under activity stepping, %d under dense: want exactly one cycle later",
			done, denseDone)
	}
}
