package network

import (
	"testing"
	"unsafe"

	"quarc/internal/flit"
	"quarc/internal/rng"
	"quarc/internal/router"
)

// sumBacklog recomputes the flit backlog the slow way, as FlitBacklog did
// before the running counter: the property test's reference.
func sumBacklog(q *PacketQueue) int {
	total := 0
	for _, p := range q.pkts[q.head:] {
		total += int(p.length - p.s.Seq)
	}
	return total
}

// TestPacketQueueBacklogCounter drives a queue through a random interleaving
// of PushBack, PushFront and Advance and checks the O(1) counter against the
// recomputed sum after every operation — including across the drain-reset
// and compaction paths.
func TestPacketQueueBacklogCounter(t *testing.T) {
	r := rng.New(42, 0)
	var q PacketQueue
	for op := 0; op < 20000; op++ {
		switch {
		case q.Packets() == 0 || r.Intn(3) == 0:
			length := 2 + r.Intn(6)
			if r.Intn(4) == 0 {
				q.PushFront(hdr(uint64(op)+1), length, 0)
			} else {
				q.PushBack(hdr(uint64(op)+1), length, 0)
			}
		default:
			if f, _ := q.NextFlit(); f != nil {
				q.Advance()
			}
		}
		if got, want := q.FlitBacklog(), sumBacklog(&q); got != want {
			t.Fatalf("op %d: FlitBacklog = %d, recomputed %d", op, got, want)
		}
	}
	// Drain completely; the counter must land exactly on zero.
	for {
		if f, _ := q.NextFlit(); f == nil {
			break
		}
		q.Advance()
	}
	if q.FlitBacklog() != 0 {
		t.Fatalf("drained queue reports backlog %d", q.FlitBacklog())
	}
}

// TestQueuedPacketSize pins a queued packet at 20 bytes, its slot and two
// counts: a saturated source queue holds one per waiting packet, whatever the
// packet's length.
func TestQueuedPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(queuedPacket{}); got != 20 {
		t.Fatalf("unsafe.Sizeof(queuedPacket{}) = %d, want 20", got)
	}
}

// expandedQueue is the source queue as it was before descriptors and the
// packet table: every packet stored as the flits flit.AppendPacket expands it
// to. It is the oracle TestPacketQueueMatchesAppendPacket holds the queue's
// slots, materialised with their header records, to.
type expandedQueue struct {
	pkts  [][]flit.Flit
	ports []int
	pos   int // next flit of the front packet
}

func (e *expandedQueue) insert(at int, h flit.Flit, length, port int) {
	e.pkts = append(e.pkts, nil)
	copy(e.pkts[at+1:], e.pkts[at:])
	e.pkts[at] = flit.AppendPacket(nil, h, length)
	e.ports = append(e.ports, 0)
	copy(e.ports[at+1:], e.ports[at:])
	e.ports[at] = port
}

func (e *expandedQueue) pushFront(h flit.Flit, length, port int) {
	at := 0
	if e.pos > 0 {
		at = 1 // never ahead of a packet that is already streaming
	}
	e.insert(at, h, length, port)
}

func (e *expandedQueue) advance() {
	if e.pos++; e.pos == len(e.pkts[0]) {
		e.pkts, e.ports, e.pos = e.pkts[1:], e.ports[1:], 0
	}
}

func (e *expandedQueue) backlog() int {
	total := -e.pos
	for _, p := range e.pkts {
		total += len(p)
	}
	return total
}

// randomHeader draws a header record with every field set, including the
// length the packet table must replace with the queued length.
func randomHeader(r *rng.Stream, id uint64) router.Header {
	return router.Header{
		Traffic: flit.Traffic(r.Intn(4)), ChainCCW: r.Intn(2) == 0,
		Src: int32(r.Intn(64)), Dst: int32(r.Intn(64)), PktLen: int32(r.Intn(9)), Remain: int32(r.Intn(32)),
		PktID: id, MsgID: id / 3, Bits: uint64(r.Intn(1 << 30)), Gen: int64(r.Intn(1 << 20)),
	}
}

// materialise forms the whole flit that slot s of the packet whose header
// record is *h stands for: the record with the multicast bitstring shifted by
// the slot's hops, the slot's kind and index, and the index as the data word,
// as flit.AppendPacket lays a packet out. It is the tests' bridge to that
// oracle; the simulator itself never forms a flit.Flit.
func materialise(h *router.Header, s router.Slot) flit.Flit {
	return flit.Flit{
		Kind: s.Kind, Traffic: h.Traffic, ChainCCW: h.ChainCCW, Payload: uint32(s.Seq),
		Src: int(h.Src), Dst: int(h.Dst), Seq: int(s.Seq), PktLen: int(h.PktLen), Remain: int(h.Remain),
		PktID: h.PktID, MsgID: h.MsgID, Bits: h.Bits >> s.Hop, Gen: h.Gen,
	}
}

// TestPacketQueueMatchesAppendPacket is the source queue's differential
// oracle: under random interleavings of PushBack, PushFront and Advance —
// the queue idle, mid-packet, deep enough to compact, and drained to empty —
// every slot it offers, materialised with its header record, must equal on
// every field the flit the pre-expanded queue would have offered, through
// the same port, with the same FlitBacklog and Packets after every
// operation. Each packet's handle is freed once its tail has left the queue,
// so later packets reuse handles as they do in a fabric.
func TestPacketQueueMatchesAppendPacket(t *testing.T) {
	r := rng.New(7, 0)
	var q PacketQueue
	var tbl router.Packets
	var ref expandedQueue
	compacted, filling := false, true
	for op := 0; op < 60000; op++ {
		// Alternate filling and draining so the queue grows past the
		// compaction threshold, compacts, empties and restarts.
		switch {
		case filling && q.Packets() > 120:
			filling = false
		case !filling && q.Packets() == 0:
			filling = true
		}
		pushOdds := 16
		if filling {
			pushOdds = 2
		}
		if r.Intn(pushOdds) == 0 {
			h := randomHeader(r, uint64(op)+1)
			length, port := 2+r.Intn(7), r.Intn(4)
			if r.Intn(4) == 0 {
				q.PushFront(tbl.Add(&h, length), length, port)
				ref.pushFront(materialise(&h, router.Slot{}), length, port)
			} else {
				q.PushBack(tbl.Add(&h, length), length, port)
				ref.insert(len(ref.pkts), materialise(&h, router.Slot{}), length, port)
			}
		} else if len(ref.pkts) > 0 {
			headBefore := q.head
			if s, _ := q.NextFlit(); s.Kind == flit.Tail {
				tbl.Free(s.Pkt)
			}
			q.Advance()
			ref.advance()
			compacted = compacted || (headBefore > 32 && q.head == 0 && q.Packets() > 0)
		}
		if q.FlitBacklog() != ref.backlog() || q.Packets() != len(ref.pkts) {
			t.Fatalf("op %d: backlog/packets = %d/%d, oracle %d/%d",
				op, q.FlitBacklog(), q.Packets(), ref.backlog(), len(ref.pkts))
		}
		f, port := q.NextFlit()
		if len(ref.pkts) == 0 {
			if f != nil {
				t.Fatalf("op %d: flit offered by a queue the oracle has empty", op)
			}
			continue
		}
		if f == nil || materialise(tbl.Header(f), *f) != ref.pkts[0][ref.pos] || port != ref.ports[0] {
			t.Fatalf("op %d: next slot %+v port %d\noracle %+v port %d", op, f, port, ref.pkts[0][ref.pos], ref.ports[0])
		}
	}
	if tbl.Live() != q.Packets() {
		t.Fatalf("%d packets live in the table, %d queued", tbl.Live(), q.Packets())
	}
	if !compacted {
		t.Fatal("the drive never compacted a non-empty queue")
	}
}

// BenchmarkAssemblerBroadcastReceive measures the receive/reassembly path
// under interleaved multi-flit streams from many sources — the broadcast
// delivery profile. The interesting number is allocs/op: the slice-backed
// Assembler must not allocate in steady state, where the map-backed one
// churned an insert+delete per completed packet.
func BenchmarkAssemblerBroadcastReceive(b *testing.B) {
	const sources = 8
	const msgLen = 16
	var a Assembler
	// Pre-build one packet per source; streams interleave round-robin, the
	// worst case for lookup.
	hdrs := make([]*router.Header, sources)
	pkts := make([][]router.Slot, sources)
	for s := range pkts {
		hdrs[s], pkts[s] = pkt(uint64(s)+1, msgLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	completed := 0
	for i := 0; i < b.N; i++ {
		round := uint64(i)
		for seq := 0; seq < msgLen; seq++ {
			for s := range pkts {
				// Fresh packet ids per round keep the id space realistic.
				hdrs[s].PktID = round*sources + uint64(s) + 1
				if a.Add(hdrs[s], pkts[s][seq]) {
					completed++
				}
			}
		}
	}
	if completed != b.N*sources {
		b.Fatalf("completed %d packets, want %d", completed, b.N*sources)
	}
}

// TestAssemblerSteadyStateAllocs is the CI-checkable form of the benchmark:
// after the first round grows the partial-packet slice to its peak, the
// receive path must not allocate at all.
func TestAssemblerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs without -race")
	}
	const sources = 8
	const msgLen = 16
	var a Assembler
	hdrs := make([]*router.Header, sources)
	pkts := make([][]router.Slot, sources)
	for s := range pkts {
		hdrs[s], pkts[s] = pkt(uint64(s)+1, msgLen)
	}
	round := uint64(0)
	deliverRound := func() {
		round++
		for seq := 0; seq < msgLen; seq++ {
			for s := range pkts {
				hdrs[s].PktID = round*sources + uint64(s) + 1
				a.Add(hdrs[s], pkts[s][seq])
			}
		}
	}
	deliverRound() // reach steady-state capacity
	if avg := testing.AllocsPerRun(100, deliverRound); avg != 0 {
		t.Fatalf("receive path allocated %.1f times per round in steady state; want 0", avg)
	}
}
