package network_test

import (
	"fmt"
	"testing"

	"quarc/internal/flit"
	"quarc/internal/mesh"
	"quarc/internal/network"
	"quarc/internal/router"
)

// delivery is one flit delivered to a PE: its packet's header record, as it
// read at the delivery, and its slot.
type delivery struct {
	h router.Header
	s router.Slot
}

// recordingAdapter is a BaseAdapter that keeps every flit delivered to its PE.
type recordingAdapter struct {
	*network.BaseAdapter
	got []delivery
}

func (r *recordingAdapter) Receive(h *router.Header, s router.Slot, now int64) {
	r.got = append(r.got, delivery{*h, s})
	r.BaseAdapter.Receive(h, s, now)
}

// kindAt is the kind of flit seq of an n-flit packet.
func kindAt(seq, n int) flit.Kind {
	switch seq {
	case 0:
		return flit.Header
	case n - 1:
		return flit.Tail
	}
	return flit.Body
}

// TestVacatedSlotOutlivesApply pins the vacated-slot rule on the worker pool.
// A moved flit is read in the slot its Commit vacated, and a mailbox record
// carries a pointer to that slot to the worker owning the receiving node. The
// one same-cycle writer that can land in a vacated slot is Feed refilling an
// injection lane that was full at the start of the cycle, so the pool must
// not run any pass 2 while another worker may still read such a record.
//
// The workload makes exactly that happen across every shard boundary of two
// and three workers on a 16x16 mesh: each node of the row above a boundary
// injects into its south neighbour through the output that also carries
// transit traffic from two rows up, so its injection lane fills while the
// transit packet holds the link, then forwards its head across the boundary
// and is refilled by Feed in the same cycle. Every delivered flit must come
// with, field for field, the header record its packet was sent with, and
// with its kind at its index.
func TestVacatedSlotOutlivesApply(t *testing.T) {
	const w, h, depth, msgLen, msgs = 16, 16, 4, 8, 6
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			fab, as := buildMesh(t, w, h)
			defer fab.Close()
			fab.SetStepWorkers(workers)
			fab.SetStepGrain(1)
			recs := make([]*recordingAdapter, len(as))
			for node, a := range as {
				recs[node] = &recordingAdapter{BaseAdapter: a}
				fab.SetAdapter(node, recs[node])
			}

			// Rows 4 and 8 start a shard at three workers ([0,64), [64,128),
			// [128,256)); row 8 also does at two.
			want := map[uint64]router.Header{}
			var pktID uint64
			var feeders []int
			for _, row := range []int{4, 8} {
				for x := 0; x < w; x++ {
					dst := row*w + x
					for _, src := range []int{dst - 2*w, dst - w} {
						for k := 0; k < msgs; k++ {
							msg := as[src].SendUnicast(dst, msgLen, 0)
							pktID++ // one packet per unicast message, ids in send order
							want[pktID] = router.Header{Traffic: flit.Unicast,
								Src: int32(src), Dst: int32(dst), MsgID: msg, PktID: pktID, PktLen: msgLen}
						}
					}
					feeders = append(feeders, dst-w)
				}
			}

			refilled := 0 // cycles an injection lane full at the start popped and was refilled
			before := make([][]router.Slot, len(feeders))
			for fab.Tracker.InFlight() > 0 {
				if fab.Now() > 5_000 {
					t.Fatalf("%d messages still in flight at cycle %d", fab.Tracker.InFlight(), fab.Now())
				}
				for i, node := range feeders {
					before[i], _ = fab.Routers[node].LaneContents(mesh.Inj, 0)
				}
				fab.Step()
				for i, node := range feeders {
					after, _ := fab.Routers[node].LaneContents(mesh.Inj, 0)
					if len(before[i]) == depth && len(after) == depth && after[0] != before[i][0] {
						refilled++
					}
				}
			}
			if refilled == 0 {
				t.Fatal("no injection lane was refilled in the cycle it forwarded from full: the test exercises nothing")
			}

			delivered := 0
			for node, r := range recs {
				for _, d := range r.got {
					w, ok := want[d.h.PktID]
					if seq := int(d.s.Seq); !ok || d.h != w || seq < 0 || seq >= msgLen || d.s.Kind != kindAt(seq, msgLen) {
						t.Fatalf("node %d received %+v with %+v, which no packet sent", node, d.s, d.h)
					}
					delivered++
				}
			}
			if delivered != len(want)*msgLen {
				t.Fatalf("delivered %d flits, sent %d", delivered, len(want)*msgLen)
			}
		})
	}
}
