package network

import (
	"testing"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// hdr is the header slot of test packet id. A source queue carries a
// packet's handle through untouched, so the queue tests use the id as it.
func hdr(id uint64) router.Slot { return router.Slot{Pkt: uint32(id), Kind: flit.Header} }

func pkt(id uint64, n int) []flit.Flit {
	return flit.Packet(flit.Flit{Src: 0, Dst: 1, PktID: id, MsgID: id}, n)
}

// push and pushFront queue the packet pkt(id, n) expands, for injection
// port 0.
func push(q *PacketQueue, id uint64, n int)      { q.PushBack(hdr(id), n, 0) }
func pushFront(q *PacketQueue, id uint64, n int) { q.PushFront(hdr(id), n, 0) }

func TestPacketQueueFIFO(t *testing.T) {
	var q PacketQueue
	push(&q, 1, 2)
	push(&q, 2, 3)
	if q.Packets() != 2 || q.FlitBacklog() != 5 {
		t.Fatalf("packets/backlog = %d/%d", q.Packets(), q.FlitBacklog())
	}
	var ids []uint64
	for {
		f, _ := q.NextFlit()
		if f == nil {
			break
		}
		ids = append(ids, uint64(f.Pkt))
		q.Advance()
	}
	want := []uint64{1, 1, 2, 2, 2}
	if len(ids) != len(want) {
		t.Fatalf("streamed %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("streamed %v, want %v", ids, want)
		}
	}
}

func TestPacketQueuePushFrontIdle(t *testing.T) {
	var q PacketQueue
	push(&q, 1, 2)
	pushFront(&q, 9, 2)
	f, _ := q.NextFlit()
	if f.Pkt != 9 {
		t.Fatalf("front flit from pkt %d, want 9", f.Pkt)
	}
}

func TestPacketQueuePushFrontMidStream(t *testing.T) {
	var q PacketQueue
	push(&q, 1, 3)
	push(&q, 2, 2)
	q.Advance() // pkt 1 started streaming
	pushFront(&q, 9, 2)
	// Order must be: rest of pkt 1, then pkt 9, then pkt 2.
	var ids []uint64
	for {
		f, _ := q.NextFlit()
		if f == nil {
			break
		}
		ids = append(ids, uint64(f.Pkt))
		q.Advance()
	}
	want := []uint64{1, 1, 9, 9, 2, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("streamed %v, want %v", ids, want)
		}
	}
}

func TestPacketQueueBacklogAccounting(t *testing.T) {
	var q PacketQueue
	push(&q, 1, 4)
	q.Advance()
	if q.FlitBacklog() != 3 {
		t.Fatalf("backlog = %d, want 3", q.FlitBacklog())
	}
}

func TestPacketQueueRejectsShortPacket(t *testing.T) {
	var q PacketQueue
	defer func() {
		if recover() == nil {
			t.Fatal("short packet accepted")
		}
	}()
	q.PushBack(hdr(1), 1, 0)
}

func TestAssemblerCompletesOnTail(t *testing.T) {
	var a Assembler
	p := pkt(5, 4)
	for i := range p {
		done := a.Add(&p[i])
		if done != (i == 3) {
			t.Fatalf("flit %d: done = %v", i, done)
		}
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after completion", a.Pending())
	}
}

func TestAssemblerInterleavedPackets(t *testing.T) {
	var a Assembler
	p1, p2 := pkt(1, 3), pkt(2, 3)
	a.Add(&p1[0])
	a.Add(&p2[0])
	a.Add(&p1[1])
	a.Add(&p2[1])
	if a.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", a.Pending())
	}
	if !a.Add(&p1[2]) || !a.Add(&p2[2]) {
		t.Fatal("tails did not complete packets")
	}
}

func TestAssemblerPanicsOnOutOfOrder(t *testing.T) {
	var a Assembler
	p := pkt(1, 3)
	a.Add(&p[0])
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order flit accepted")
		}
	}()
	a.Add(&p[2]) // skip the body
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	var done []MessageRecord
	tr.OnDone = func(r MessageRecord) { done = append(done, r) }
	tr.Register(1, ClassBroadcast, 0, 10, 3)
	tr.Delivered(1, 1, 20)
	tr.Delivered(1, 2, 25)
	if len(done) != 0 || tr.InFlight() != 1 {
		t.Fatal("completed early")
	}
	tr.Delivered(1, 3, 30)
	if len(done) != 1 || tr.InFlight() != 0 {
		t.Fatal("did not complete")
	}
	r := done[0]
	if r.First != 20 || r.Last != 30 || r.Delivered != 3 || r.Gen != 10 {
		t.Fatalf("record = %+v", r)
	}
	if r.DeliSum != 75 {
		t.Fatalf("DeliSum = %d, want 75", r.DeliSum)
	}
	if tr.Completed() != 1 {
		t.Fatalf("Completed = %d", tr.Completed())
	}
}

func TestTrackerDuplicateDelivery(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, ClassBroadcast, 0, 0, 2)
	tr.Delivered(1, 5, 1)
	tr.Delivered(1, 5, 2) // duplicate node
	if tr.Duplicates() != 1 {
		t.Fatalf("Duplicates = %d, want 1", tr.Duplicates())
	}
	if tr.InFlight() != 1 {
		t.Fatal("duplicate delivery must not complete the message")
	}
}

func TestTrackerUnknownMessagePanics(t *testing.T) {
	tr := NewTracker()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown delivery accepted")
		}
	}()
	tr.Delivered(42, 0, 0)
}

func TestTrackerDuplicateRegisterPanics(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, ClassUnicast, 0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register accepted")
		}
	}()
	tr.Register(1, ClassUnicast, 0, 0, 1)
}

// TestUnicastDeliveryKeepsNoMask: a single-destination message completes on
// its first delivery, so it can have no duplicate to catch, and the tracker
// grows no delivered-node mask for it, wherever it lands.
func TestUnicastDeliveryKeepsNoMask(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, ClassUnicast, 0, 0, 1)
	tr.Delivered(1, 1000, 5)
	if tr.Completed() != 1 || len(tr.free) != 1 {
		t.Fatalf("completed %d, %d free states; want 1 and 1", tr.Completed(), len(tr.free))
	}
	if st := tr.free[0]; len(st.maskHi) != 0 || st.mask != 0 {
		t.Fatalf("a unicast delivered at node 1000 left mask %#x and %d high words", st.mask, len(st.maskHi))
	}
}

// TestTrackerUnicastsAllocateNothing: once warm, a thousand unicasts
// delivered at a high node id cost the tracker no allocation. CI runs it by
// name.
func TestTrackerUnicastsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs without -race")
	}
	tr := NewTracker()
	id := uint64(0)
	round := func() {
		for i := 0; i < 1000; i++ {
			id++
			tr.Register(id, ClassUnicast, 3, int64(id), 1)
			tr.Delivered(id, 1000, int64(id)+9)
		}
	}
	round() // warm-up: the one tracking state and the map reach capacity
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("1,000 unicasts allocated %.1f times; want 0", avg)
	}
}

func TestMessageClassString(t *testing.T) {
	if ClassUnicast.String() != "unicast" || ClassBroadcast.String() != "broadcast" ||
		ClassMulticast.String() != "multicast" || MessageClass(9).String() == "" {
		t.Fatal("MessageClass strings wrong")
	}
}

func TestBaseAdapterFeedPacing(t *testing.T) {
	// Feed pushes at most one flit per injection port per cycle, even when
	// the lane has more space.
	r := router.New(router.Config{
		Node: 0, VCs: 2, Depth: 8, InLanes: []int{2, 1}, NOut: 1,
		EjectPort: router.NoOutput,
		Route: func(node, in int, f flit.Flit) router.Decision {
			return router.Decision{Out: 0}
		},
		VCNext: func(node, out, in, cur int, f flit.Flit) int { return 0 },
	})
	a := &BaseAdapter{Node: 0, R: r, Queues: make([]PacketQueue, 1)}
	a.Queues[0].PushBack(hdr(1), 6, 1)
	for cyc := int64(0); cyc < 3; cyc++ {
		a.Feed(cyc)
		if got := r.LaneLen(1, 0); got != int(cyc)+1 {
			t.Fatalf("cycle %d: lane holds %d flits, want %d", cyc, got, cyc+1)
		}
	}
}

func TestBaseAdapterFeedStopsWhenLaneFull(t *testing.T) {
	r := router.New(router.Config{
		Node: 0, VCs: 2, Depth: 2, InLanes: []int{1}, NOut: 1,
		EjectPort: router.NoOutput,
		Route: func(node, in int, f flit.Flit) router.Decision {
			return router.Decision{Out: 0}
		},
		VCNext: func(node, out, in, cur int, f flit.Flit) int { return 0 },
	})
	a := &BaseAdapter{Node: 0, R: r, Queues: make([]PacketQueue, 1)}
	push(&a.Queues[0], 1, 5)
	for cyc := int64(0); cyc < 6; cyc++ {
		a.Feed(cyc)
	}
	if got := r.LaneLen(0, 0); got != 2 {
		t.Fatalf("lane holds %d flits, want capacity 2", got)
	}
	if a.Backlog() != 3 {
		t.Fatalf("backlog %d, want 3", a.Backlog())
	}
}
