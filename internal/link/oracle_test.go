package link

import (
	"testing"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// switchPair is the two switches of one router.NewSet, A's output 0 wired to
// B's input 0, with the credit of every flit B pops from that port returned
// to A: what internal/network does for a whole wiring table, for one link.
// The route forwards at A and ejects at B.
type switchPair struct {
	A, B   *router.Router
	am, bm []router.Move
}

func newSwitchPair(depth int) *switchPair {
	route := func(node, in int, h router.Header, hop int) router.Decision {
		if node == 1 {
			return router.Decision{Out: router.NoOutput, Eject: true}
		}
		return router.Decision{Out: 0}
	}
	vcNext := func(node, out, in, cur int) int { return cur }
	rs := router.NewSet(2, router.Config{VCs: NumVC, Depth: depth, InLanes: []int{NumVC},
		NOut: 1, EjectPort: router.NoOutput, Route: route, VCNext: vcNext})
	rs[0].ConnectOutput(0, NumVC, depth)
	return &switchPair{A: rs[0], B: rs[1]}
}

// Step runs one cycle: both switches arbitrate and commit against the
// start-of-cycle state, then A's forwarded flits cross the link and B's pops
// return their credits. With drain false B sits the cycle out.
func (p *switchPair) Step(drain bool) (am, bm []router.Move) {
	p.am = p.A.Arbitrate(p.am[:0])
	p.bm = p.bm[:0]
	if drain {
		p.bm = p.B.Arbitrate(p.bm)
	}
	p.A.Commit(p.am)
	p.B.Commit(p.bm)
	for i := range p.am {
		if m := &p.am[i]; !p.B.Push(0, int(m.OutVC), p.A.MoveFlit(m)) {
			panic("switchPair: push into a full lane")
		}
	}
	for i := range p.bm {
		p.A.ReturnCredit(0, int(p.bm[i].Lane))
	}
	return p.am, p.bm
}

// frameSlots adds packet id's header to r's packet table and returns the
// slots of its n flits, laid out as flit.Packet lays out the flits.
func frameSlots(r *router.Router, id uint64, n int) []router.Slot {
	h := router.Header{Src: 0, Dst: 1, PktID: id, MsgID: id}
	s := make([]router.Slot, n)
	s[0] = r.Packets().Add(&h, n)
	for i := 1; i < n; i++ {
		s[i] = s[0]
		s[i].Kind, s[i].Seq = flit.Body, int32(i)
	}
	s[n-1].Kind = flit.Tail
	return s
}

// wireFlit is the flit slot s of r's packet table puts on the link: the
// slot's kind and index, its index as the data word, and its packet's header
// fields.
func wireFlit(r *router.Router, s *router.Slot) flit.Flit {
	h := r.Packets().Header(s)
	return flit.Flit{Kind: s.Kind, Seq: int(s.Seq), Payload: uint32(s.Seq), Src: int(h.Src), Dst: int(h.Dst),
		PktLen: int(h.PktLen), PktID: h.PktID, MsgID: h.MsgID}
}

// TestCreditCountersMatchChannelStatus is the differential oracle for the
// fabric's flow control: one two-VC link is driven through a switchPair
// (sender-side credit counters, what the simulator runs) and through a
// Receiver (the CH_STATUS_N lines of §2.7) side by side. Every flit the
// sending switch forwards is clocked into the Receiver as a LocalLink word
// and every flit the receiving switch pops is popped from the Receiver lane,
// so at each cycle boundary CH_STATUS_N[vc] must be asserted exactly when the
// sender holds a credit for vc, the Receiver must never see a protocol
// violation, and both must hand over the same flits in the same order.
func TestCreditCountersMatchChannelStatus(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		pair := newSwitchPair(depth)
		recv := NewReceiver(depth)

		// Frames alternate between the two VCs. The next one enters the
		// sender only once the previous has left it, so words of different
		// frames never interleave on the wire (the write controller's rule).
		var frames [][]router.Slot
		for i, n := range []int{2, 5, 3, 8, 2, 6} {
			frames = append(frames, frameSlots(pair.A, uint64(i+1), n))
		}
		frame, word, delivered, total := 0, 0, 0, 2+5+3+8+2+6
		for cyc := 0; delivered < total; cyc++ {
			if cyc > 1000 {
				t.Fatalf("depth %d: %d of %d flits after %d cycles", depth, delivered, total, cyc)
			}
			status, _ := recv.Drive()
			for vc := 0; vc < NumVC; vc++ {
				if credit := pair.A.Credit(0, vc); status[vc] != (credit > 0) {
					t.Fatalf("depth %d cycle %d vc %d: CH_STATUS asserted=%v but the sender holds %d credits",
						depth, cyc, vc, status[vc], credit)
				}
			}
			if frame < len(frames) && (word > 0 || pair.A.Quiescent()) {
				if vc := frame % NumVC; pair.A.Push(0, vc, &frames[frame][word]) {
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
				if popped := wireFlit(pair.B, pair.B.MoveFlit(m)); !ok || f != popped {
					t.Fatalf("depth %d cycle %d: switch popped %+v from lane %d, LocalLink lane held %+v (ok=%v)",
						depth, cyc, popped, m.Lane, f, ok)
				}
				delivered++
			}
			for i := range am {
				m := &am[i]
				sent := wireFlit(pair.A, pair.A.MoveFlit(m))
				sig := Signals{SrcRdy: true, SOF: sent.Kind == flit.Header, EOF: sent.Kind == flit.Tail, ChToStore: int(m.OutVC)}
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
