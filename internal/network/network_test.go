package network

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// hdr is the header slot of test packet id. A source queue carries a
// packet's handle through untouched, so the queue tests use the id as it.
func hdr(id uint64) router.Slot { return router.Slot{Pkt: uint32(id), Kind: flit.Header} }

// pkt is test packet id of n flits as the PE receives it: its header record
// and its slots, laid out as flit.Packet lays out the flits.
func pkt(id uint64, n int) (*router.Header, []router.Slot) {
	s := make([]router.Slot, n)
	for i := range s {
		s[i] = router.Slot{Pkt: uint32(id), Seq: int32(i), Kind: flit.Body}
	}
	s[0].Kind, s[n-1].Kind = flit.Header, flit.Tail
	return &router.Header{Src: 0, Dst: 1, PktID: id, MsgID: id, PktLen: int32(n)}, s
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
	h, p := pkt(5, 4)
	for i := range p {
		done := a.Add(h, p[i])
		if done != (i == 3) {
			t.Fatalf("flit %d: done = %v", i, done)
		}
	}
	if len(a.partial) != 0 {
		t.Fatalf("pending = %d after completion", len(a.partial))
	}
}

func TestAssemblerInterleavedPackets(t *testing.T) {
	var a Assembler
	h1, p1 := pkt(1, 3)
	h2, p2 := pkt(2, 3)
	a.Add(h1, p1[0])
	a.Add(h2, p2[0])
	a.Add(h1, p1[1])
	a.Add(h2, p2[1])
	if len(a.partial) != 2 {
		t.Fatalf("pending = %d, want 2", len(a.partial))
	}
	if !a.Add(h1, p1[2]) || !a.Add(h2, p2[2]) {
		t.Fatal("tails did not complete packets")
	}
}

func TestAssemblerPanicsOnOutOfOrder(t *testing.T) {
	var a Assembler
	h, p := pkt(1, 3)
	a.Add(h, p[0])
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order flit accepted")
		}
	}()
	a.Add(h, p[2]) // skip the body
}

// TestAssemblerPanicsOnEarlyTail: a tail arriving in order but before its
// packet's length is reached is a truncated packet, not a completed one.
func TestAssemblerPanicsOnEarlyTail(t *testing.T) {
	var a Assembler
	h, p := pkt(1, 4)
	a.Add(h, p[0])
	a.Add(h, p[1])
	early := p[2]
	early.Kind = flit.Tail
	defer func() {
		if recover() == nil {
			t.Fatal("a tail at flit 2 of a 4-flit packet completed it")
		}
	}()
	a.Add(h, early)
}

// tail is the header record a tail of message id, sent by src at cycle gen,
// is delivered with.
func tail(id uint64, src int, gen int64) *router.Header {
	return &router.Header{MsgID: id, Src: int32(src), Gen: gen}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	var done []MessageRecord
	tr.OnDone = func(r MessageRecord) { done = append(done, r) }
	tr.Register(1, ClassBroadcast, 0, 10, 3)
	tr.Delivered(tail(1, 0, 10), 1, 20)
	tr.Delivered(tail(1, 0, 10), 2, 25)
	if len(done) != 0 || tr.InFlight() != 1 {
		t.Fatal("completed early")
	}
	tr.Delivered(tail(1, 0, 10), 3, 30)
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
	tr.Delivered(tail(1, 0, 0), 5, 1)
	tr.Delivered(tail(1, 0, 0), 5, 2) // duplicate node
	if tr.Duplicates() != 1 {
		t.Fatalf("Duplicates = %d, want 1", tr.Duplicates())
	}
	if tr.InFlight() != 1 {
		t.Fatal("duplicate delivery must not complete the message")
	}
}

// TestTrackerUnknownMessagePanics: a delivery for an id the tracker does not
// hold panics, whether no message ever had it, a unicast already completed
// under it, or it falls between unicasts in flight.
func TestTrackerUnknownMessagePanics(t *testing.T) {
	for name, setup := range map[string]func(*Tracker){
		"empty":            func(*Tracker) {},
		"broadcast":        func(tr *Tracker) { tr.Register(41, ClassBroadcast, 0, 0, 3) },
		"unicast-done":     func(tr *Tracker) { tr.Register(42, ClassUnicast, 0, 0, 1); tr.Delivered(tail(42, 0, 0), 1, 5) },
		"unicast-neighbor": func(tr *Tracker) { tr.Register(41, ClassUnicast, 0, 0, 1); tr.Register(43, ClassUnicast, 0, 0, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewTracker()
			setup(tr)
			defer func() {
				if recover() == nil {
					t.Fatal("unknown delivery accepted")
				}
			}()
			tr.Delivered(tail(42, 0, 0), 0, 9)
		})
	}
}

func TestTrackerDuplicateRegisterPanics(t *testing.T) {
	classes := map[string]MessageClass{"unicast": ClassUnicast, "broadcast": ClassBroadcast}
	for first, c1 := range classes {
		for second, c2 := range classes {
			t.Run(first+"-then-"+second, func(t *testing.T) {
				tr := NewTracker()
				tr.Register(1, c1, 0, 0, 1)
				defer func() {
					if recover() == nil {
						t.Fatal("duplicate register accepted")
					}
				}()
				tr.Register(1, c2, 0, 0, 1)
			})
		}
	}
}

// TestUnicastDeliveryKeepsNoMask: a single-destination message completes on
// its first delivery, so it can have no duplicate to catch, and a delivered
// unicast leaves the tracker holding nothing for it, wherever it landed: no
// record, no mask, no recycled state, no bit in the window.
func TestUnicastDeliveryKeepsNoMask(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, ClassUnicast, 0, 0, 1)
	tr.Delivered(tail(1, 0, 0), 1000, 5)
	if tr.Completed() != 1 || tr.InFlight() != 0 {
		t.Fatalf("completed %d, %d in flight; want 1 and 0", tr.Completed(), tr.InFlight())
	}
	if len(tr.inflight) != 0 || len(tr.free) != 0 || tr.unicasts.n != 0 || len(tr.unicasts.words) != 0 {
		t.Fatalf("a delivered unicast left %d records, %d free states and a %d-word window holding %d ids",
			len(tr.inflight), len(tr.free), len(tr.unicasts.words), tr.unicasts.n)
	}
}

// TestTrackerUnicastsAllocateNothing: once warm, a thousand unicasts
// delivered at a high node id, with the hundred sent after each still in
// flight, cost the tracker no allocation: the window slides over the ids in
// flight instead of growing. CI runs it by name.
func TestTrackerUnicastsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs without -race")
	}
	const lag = 100
	tr := NewTracker()
	id := uint64(0)
	f := tail(0, 3, 0)
	round := func() {
		for i := 0; i < 1000; i++ {
			id++
			tr.Register(id, ClassUnicast, 3, int64(id), 1)
			if id > lag {
				f.MsgID, f.Gen = id-lag, int64(id-lag)
				tr.Delivered(f, 1000, int64(id)+9)
			}
		}
	}
	round() // warm-up: the window reaches capacity
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("1,000 unicasts allocated %.1f times; want 0", avg)
	}
	if n := len(tr.unicasts.words); n > 64 {
		t.Fatalf("the window spans %d words for %d unicasts in flight", n, tr.InFlight())
	}
}

// refTracker is the tracker as it was before unicasts became window bits:
// one record per message in flight, in a map.
type refTracker map[uint64]*MessageRecord

func (r refTracker) register(id uint64, c MessageClass, src int, gen int64, expected int) {
	r[id] = &MessageRecord{MsgID: id, Class: c, Src: src, Gen: gen, Expected: expected, First: -1}
}

// delivered returns the completed record, if the delivery completed one.
func (r refTracker) delivered(id uint64, now int64) (MessageRecord, bool) {
	rec := r[id]
	rec.Delivered++
	rec.DeliSum += now
	if rec.First < 0 {
		rec.First = now
	}
	rec.Last = now
	if rec.Delivered < rec.Expected {
		return MessageRecord{}, false
	}
	delete(r, id)
	return *rec, true
}

// trackerCase is a message of TestTrackerOutOfOrderFootprint: unicast id,
// sent by node id%17 at cycle 3*id and delivered at node 1000.
func trackerCase(id uint64) (src int, gen int64) { return int(id % 17), int64(id) * 3 }

// refRecords is what refTracker reports for the unicasts ids, registered in
// that order and delivered in the order of delivery, the i-th at cycle
// 100,000+i.
func refRecords(ids, delivery []uint64) []MessageRecord {
	ref := refTracker{}
	for _, id := range ids {
		src, gen := trackerCase(id)
		ref.register(id, ClassUnicast, src, gen, 1)
	}
	var recs []MessageRecord
	for i, id := range delivery {
		if r, ok := ref.delivered(id, int64(100_000+i)); ok {
			recs = append(recs, r)
		}
	}
	return recs
}

// TestTrackerOutOfOrderFootprint registers 20,000 unicasts, every tenth id
// skipped as if another node had taken it, and delivers them in a shuffled
// order. Every completion record must equal the map-based reference's, and
// once everything is delivered the tracker may keep no more than a few KB:
// the window's reusable bitmap, not a record per message. CI runs it by name.
func TestTrackerOutOfOrderFootprint(t *testing.T) {
	var ids []uint64
	for id := uint64(1); len(ids) < 20_000; id++ {
		if id%10 != 0 {
			ids = append(ids, id)
		}
	}
	delivery := slices.Clone(ids)
	rand.New(rand.NewSource(1)).Shuffle(len(delivery), func(i, j int) {
		delivery[i], delivery[j] = delivery[j], delivery[i]
	})
	want := refRecords(ids, delivery)
	got := make([]MessageRecord, 0, len(want))
	tails := make([]router.Header, len(delivery))
	for i, id := range delivery {
		src, gen := trackerCase(id)
		tails[i] = *tail(id, src, gen)
	}

	// run tracks every message on a new tracker and returns the live heap it
	// grew by. Anything else the test binary allocates meanwhile only adds to
	// the reading, so the footprint is the least of a few runs.
	run := func() (retained int64) {
		var before, after runtime.MemStats
		got = got[:0]
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := NewTracker()
		tr.OnDone = func(r MessageRecord) { got = append(got, r) }
		for _, id := range ids {
			src, gen := trackerCase(id)
			tr.Register(id, ClassUnicast, src, gen, 1)
		}
		if tr.InFlight() != len(ids) {
			t.Fatalf("%d messages in flight, want %d", tr.InFlight(), len(ids))
		}
		for i := range tails {
			tr.Delivered(&tails[i], 1000, int64(100_000+i))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if tr.InFlight() != 0 || tr.Completed() != uint64(len(want)) {
			t.Fatalf("%d in flight, %d completed; want 0 and %d", tr.InFlight(), tr.Completed(), len(want))
		}
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	retained := run()
	if !slices.Equal(got, want) {
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("completion %d: %+v, reference %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("%d completions, reference %d", len(got), len(want))
	}
	if raceEnabled {
		return // race instrumentation allocates; the footprint guard runs without -race
	}
	for i := 0; i < 2; i++ {
		retained = min(retained, run())
	}
	runtime.KeepAlive(ids) // the test's own inputs stay live across every reading
	runtime.KeepAlive(tails)
	if retained > 8<<10 {
		t.Errorf("the drained tracker retains %d heap bytes, want <= 8 KiB", retained)
	}
	t.Logf("drained tracker after %d unicasts: %d heap bytes", len(ids), retained)
}

// TestTrackerUnicastOutsideWindow: a unicast the window cannot hold — an id
// older than the window's first word, or one too far past it — is tracked
// like a collective, and completes with the same record.
func TestTrackerUnicastOutsideWindow(t *testing.T) {
	tr := NewTracker()
	var got []MessageRecord
	tr.OnDone = func(r MessageRecord) { got = append(got, r) }
	far := uint64(1000 + 64*maxWindowWords)
	for _, id := range []uint64{1000, 5, far} {
		tr.Register(id, ClassUnicast, 2, int64(id), 1)
	}
	if len(tr.inflight) != 2 || tr.unicasts.n != 1 || tr.InFlight() != 3 {
		t.Fatalf("%d mapped, %d in the window; want 2 and 1", len(tr.inflight), tr.unicasts.n)
	}
	for _, id := range []uint64{far, 1000, 5} {
		tr.Delivered(tail(id, 2, int64(id)), 7, int64(id)+4)
	}
	for i, id := range []uint64{far, 1000, 5} {
		want := MessageRecord{MsgID: id, Class: ClassUnicast, Src: 2, Gen: int64(id),
			First: int64(id) + 4, Last: int64(id) + 4, Expected: 1, Delivered: 1, DeliSum: int64(id) + 4}
		if got[i] != want {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want)
		}
	}
	if tr.InFlight() != 0 {
		t.Fatalf("%d in flight after every delivery", tr.InFlight())
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
		Route: func(node, in int, h router.Header, hop int) router.Decision {
			return router.Decision{Out: 0}
		},
		VCNext: func(node, out, in, cur int) int { return 0 },
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
		Route: func(node, in int, h router.Header, hop int) router.Decision {
			return router.Decision{Out: 0}
		},
		VCNext: func(node, out, in, cur int) int { return 0 },
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
