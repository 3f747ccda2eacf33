package models_test

import (
	"testing"

	"quarc/internal/flit"
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/topology"
)

// peDelivery is one flit handed to a PE: its packet's header record as it
// read at the delivery, and its slot.
type peDelivery struct {
	h router.Header
	s router.Slot
}

// peRecorder stands in for a node's adapter at the PE boundary: it keeps
// every delivery and passes it on, so the node behaves as it would unwrapped.
type peRecorder struct {
	network.Adapter
	got []peDelivery
}

func (r *peRecorder) Receive(h *router.Header, s router.Slot, now int64) {
	r.got = append(r.got, peDelivery{*h, s})
	r.Adapter.Receive(h, s, now)
}

// sentMsg is a message as the test sent it.
type sentMsg struct {
	src  int
	gen  int64
	dsts map[int]bool
}

// kindAt is the kind of flit seq of an n-flit packet.
func kindAt(seq, n int32) flit.Kind {
	switch seq {
	case 0:
		return flit.Header
	case n - 1:
		return flit.Tail
	}
	return flit.Body
}

// TestEveryModelDeliversWholePackets holds every registered model at its
// ExampleN to what its PEs are handed, through a recorder wrapped around each
// node's adapter. Unicasts, broadcasts and multicasts (self and duplicate
// targets included) are sent from many nodes while the fabric runs, and then:
//   - at each node, each packet's flits arrive with Seq 0…PktLen−1 and the
//     header, body and tail kinds in order, every one with the same record;
//   - each tail's (MsgID, Src, Gen) is what the test sent — except that a
//     chain packet's source is the switch that retransmitted it, its chain
//     predecessor;
//   - the nodes a message's flits reach are exactly its destinations, each
//     served by one whole packet;
//   - a hardware multicast flit is delivered only where its hop-shifted
//     bitstring reads its own bit (h.Bits>>s.Hop&1 == 1), which the Quarc's
//     multicasts must exercise.
func TestEveryModelDeliversWholePackets(t *testing.T) {
	for _, m := range model.All() {
		t.Run(m.Name, func(t *testing.T) {
			n := m.ExampleN
			fab, nodes, err := model.Build(m.Name, model.BuildConfig{N: n, Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			recs := make([]*peRecorder, n)
			for node := range recs {
				recs[node] = &peRecorder{Adapter: fab.Adapters[node]}
				fab.SetAdapter(node, recs[node])
			}

			sent := map[uint64]sentMsg{}
			send := func(k int, now int64) {
				src, msgLen := k*7%n, 2+k%5
				dsts := map[int]bool{}
				var id uint64
				switch k % 3 {
				case 0:
					dst := (src + 1 + k*5%(n-1)) % n
					id = nodes[src].SendUnicast(dst, msgLen, now)
					dsts[dst] = true
				case 1:
					id = nodes[src].SendBroadcast(msgLen, now)
					for d := 0; d < n; d++ {
						dsts[d] = d != src
					}
				default:
					targets := []int{src, (src + 1) % n, (src + 3 + k) % n, (src + n/2) % n, (src + 1) % n, (src + n - 2) % n}
					id = nodes[src].SendMulticast(targets, msgLen, now)
					for _, d := range targets {
						dsts[d] = d != src
					}
				}
				sent[id] = sentMsg{src, now, dsts}
			}
			for k := 0; fab.Now() < 120 || fab.Tracker.InFlight() > 0; fab.Step() {
				if fab.Now() > 20_000 {
					t.Fatalf("%d messages still in flight at cycle %d", fab.Tracker.InFlight(), fab.Now())
				}
				if now := fab.Now(); now < 120 && now%4 == 0 {
					send(k, now)
					k++
				}
			}

			type served struct {
				msg  uint64
				node int
			}
			tails := map[served]int{}
			multicastReads := 0
			for node, r := range recs {
				type stream struct {
					h    router.Header
					next int32
				}
				open := map[uint64]*stream{} // packets partly delivered here, by id
				for _, d := range r.got {
					st := open[d.h.PktID]
					if st == nil {
						st = &stream{h: d.h}
						open[d.h.PktID] = st
					}
					if d.h != st.h || d.s.Seq != st.next || d.s.Kind != kindAt(d.s.Seq, d.h.PktLen) {
						t.Fatalf("node %d: packet %d delivered %+v with %+v after %d flits with %+v",
							node, d.h.PktID, d.s, d.h, st.next, st.h)
					}
					st.next++
					msg, ok := sent[d.h.MsgID]
					if !ok || !msg.dsts[node] {
						t.Fatalf("node %d received a flit of message %d, which was not sent to it", node, d.h.MsgID)
					}
					if d.h.Traffic == flit.Multicast {
						multicastReads++
						if d.h.Bits>>d.s.Hop&1 != 1 {
							t.Fatalf("node %d: multicast flit %+v delivered with bitstring %#x, bit %d clear",
								node, d.s, d.h.Bits, d.s.Hop)
						}
					}
					if d.s.Kind != flit.Tail {
						continue
					}
					delete(open, d.h.PktID)
					src := msg.src
					if d.h.Traffic == flit.BcastChain {
						src = topology.NextCCW(n, node)
						if d.h.ChainCCW {
							src = topology.NextCW(n, node)
						}
					}
					if int(d.h.Src) != src || d.h.Gen != msg.gen {
						t.Fatalf("node %d: tail of message %d from %d at %d, sent from %d at %d",
							node, d.h.MsgID, d.h.Src, d.h.Gen, src, msg.gen)
					}
					tails[served{d.h.MsgID, node}]++
				}
				if len(open) != 0 {
					t.Fatalf("node %d: %d packets never completed", node, len(open))
				}
			}
			for id, msg := range sent {
				for d, want := range msg.dsts {
					if want && tails[served{id, d}] != 1 {
						t.Fatalf("message %d from %d served node %d %d times", id, msg.src, d, tails[served{id, d}])
					}
				}
			}
			if m.Name == "quarc" && multicastReads == 0 {
				t.Fatal("no hardware multicast flit was delivered: the bitstring check exercised nothing")
			}
		})
	}
}
