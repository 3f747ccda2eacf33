package network

import (
	"testing"

	"quarc/internal/flit"
	"quarc/internal/rng"
)

// sumBacklog recomputes the flit backlog the slow way, as FlitBacklog did
// before the running counter: the property test's reference.
func sumBacklog(q *PacketQueue) int {
	total := 0
	for i := q.head; i < len(q.pkts); i++ {
		total += len(q.pkts[i])
	}
	return total - q.pos
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
			p := q.NewPacket(flit.Flit{PktID: uint64(op) + 1}, length)
			if r.Intn(4) == 0 {
				q.PushFront(p)
			} else {
				q.PushBack(p)
			}
		default:
			if q.NextFlit() != nil {
				q.Advance()
			}
		}
		if got, want := q.FlitBacklog(), sumBacklog(&q); got != want {
			t.Fatalf("op %d: FlitBacklog = %d, recomputed %d", op, got, want)
		}
	}
	// Drain completely; the counter must land exactly on zero.
	for {
		if q.NextFlit() == nil {
			break
		}
		q.Advance()
	}
	if q.FlitBacklog() != 0 {
		t.Fatalf("drained queue reports backlog %d", q.FlitBacklog())
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
	pkts := make([][]flit.Flit, sources)
	for s := range pkts {
		pkts[s] = flit.Packet(flit.Flit{Src: s, PktID: uint64(s) + 1}, msgLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	completed := 0
	for i := 0; i < b.N; i++ {
		round := uint64(i)
		for seq := 0; seq < msgLen; seq++ {
			for s := range pkts {
				f := pkts[s][seq]
				// Fresh packet ids per round keep the id space realistic.
				f.PktID = round*sources + uint64(s) + 1
				if a.Add(f) {
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
	pkts := make([][]flit.Flit, sources)
	for s := range pkts {
		pkts[s] = flit.Packet(flit.Flit{Src: s, PktID: uint64(s) + 1}, msgLen)
	}
	round := uint64(0)
	deliverRound := func() {
		round++
		for seq := 0; seq < msgLen; seq++ {
			for s := range pkts {
				f := pkts[s][seq]
				f.PktID = round*sources + uint64(s) + 1
				a.Add(f)
			}
		}
	}
	deliverRound() // reach steady-state capacity
	if avg := testing.AllocsPerRun(100, deliverRound); avg != 0 {
		t.Fatalf("receive path allocated %.1f times per round in steady state; want 0", avg)
	}
}
