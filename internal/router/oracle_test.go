package router

import (
	"testing"

	"quarc/internal/flit"
	"quarc/internal/link"
)

// TestCreditCountersMatchChannelStatus is the differential oracle for the
// fabric's flow control: one two-VC link is driven through a linkPair
// (sender-side credit counters, what the simulator runs) and through
// internal/link's Receiver (the CH_STATUS_N lines of §2.7) side by side. Every flit
// the sending switch forwards is clocked into the Receiver as a LocalLink word
// and every flit the receiving switch pops is popped from the Receiver lane,
// so at each cycle boundary CH_STATUS_N[vc] must be asserted exactly when the
// sender holds a credit for vc, the Receiver must never see a protocol
// violation, and both must hand over the same flits in the same order.
func TestCreditCountersMatchChannelStatus(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		route := func(node, in int, f flit.Flit) Decision {
			if node == 1 {
				return Decision{Out: NoOutput, Eject: true}
			}
			return Decision{Out: 0}
		}
		vcNext := func(node, out, in, cur int, f flit.Flit) int { return cur }
		mk := func(id int) *Router {
			return New(Config{Node: id, VCs: link.NumVC, Depth: depth, InLanes: []int{link.NumVC},
				NOut: 1, EjectPort: NoOutput, Route: route, VCNext: vcNext})
		}
		pair := newLinkPair(mk(0), mk(1))
		recv := link.NewReceiver(depth)

		// Frames alternate between the two VCs. The next one enters the
		// sender only once the previous has left it, so words of different
		// frames never interleave on the wire (the write controller's rule).
		var frames [][]Slot
		for i, n := range []int{2, 5, 3, 8, 2, 6} {
			frames = append(frames, pkt(pair.A, uint64(i+1), n, 1))
		}
		frame, word, delivered, total := 0, 0, 0, 2+5+3+8+2+6
		for cyc := 0; delivered < total; cyc++ {
			if cyc > 1000 {
				t.Fatalf("depth %d: %d of %d flits after %d cycles", depth, delivered, total, cyc)
			}
			status, _ := recv.Drive()
			for vc := 0; vc < link.NumVC; vc++ {
				if credit := pair.A.Credit(0, vc); status[vc] != (credit > 0) {
					t.Fatalf("depth %d cycle %d vc %d: CH_STATUS asserted=%v but the sender holds %d credits",
						depth, cyc, vc, status[vc], credit)
				}
			}
			if frame < len(frames) && (word > 0 || pair.A.Quiescent()) {
				if vc := frame % link.NumVC; pair.A.Push(0, vc, &frames[frame][word]) {
					if word++; word == len(frames[frame]) {
						frame, word = frame+1, 0
					}
				}
			}
			// The consumer drains in bursts of four cycles, then stalls for
			// four: back-pressure reaches the sender at every depth.
			am, bm := pair.Step(cyc/4%2 == 0)
			for i := range bm {
				m := &bm[i]
				f, ok := recv.Lanes[m.Lane].Pop()
				if popped := pair.B.Packets().Flit(pair.B.MoveFlit(m)); !ok || f != popped {
					t.Fatalf("depth %d cycle %d: switch popped %+v from lane %d, LocalLink lane held %+v (ok=%v)",
						depth, cyc, popped, m.Lane, f, ok)
				}
				delivered++
			}
			for i := range am {
				m := &am[i]
				sent := pair.A.Packets().Flit(pair.A.MoveFlit(m))
				sig := link.Signals{SrcRdy: true, SOF: sent.Kind == flit.Header, EOF: sent.Kind == flit.Tail, ChToStore: m.OutVC}
				if !recv.Clock(sig, sent) {
					t.Fatalf("depth %d cycle %d: LocalLink receiver refused %+v: %v", depth, cyc, sent, recv.Err())
				}
			}
		}
		if recv.Err() != nil || recv.Lanes[0].Len()+recv.Lanes[1].Len() != 0 {
			t.Fatalf("depth %d: receiver error %v, %d flits left behind", depth, recv.Err(),
				recv.Lanes[0].Len()+recv.Lanes[1].Len())
		}
	}
}
