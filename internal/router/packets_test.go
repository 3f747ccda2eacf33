package router

import (
	"testing"
	"unsafe"

	"quarc/internal/flit"
)

// TestSlotSize pins the buffered flit at 12 bytes: every lane slot holds one
// and every hop copies one, so its size is the datapath's unit cost.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Slot{}); got != 12 {
		t.Fatalf("unsafe.Sizeof(Slot{}) = %d, want 12", got)
	}
}

// TestLaneSize bounds a lane's FCU and parking state at 28 bytes: a 32x32
// mesh holds 9,216 of them, all visited by the arbiter.
func TestLaneSize(t *testing.T) {
	if got := unsafe.Sizeof(lane{}); got > 28 {
		t.Fatalf("unsafe.Sizeof(lane{}) = %d, want <= 28", got)
	}
}

// TestMoveSize bounds a committed move at 16 bytes: every switch keeps room
// for one per input port, reused every cycle.
func TestMoveSize(t *testing.T) {
	if got := unsafe.Sizeof(Move{}); got > 16 {
		t.Fatalf("unsafe.Sizeof(Move{}) = %d, want <= 16", got)
	}
}

// TestPackedDecisionRoundTrips: a lane stores its decisions packed, and every
// decision a switch of up to 64 outputs can make unpacks unchanged.
func TestPackedDecisionRoundTrips(t *testing.T) {
	for out := NoOutput; out < 64; out++ {
		for _, eject := range []bool{false, true} {
			for _, clone := range []bool{false, true} {
				d := Decision{Out: out, Eject: eject, Clone: clone}
				p := pack(d)
				if got := (Decision{Out: p.out(), Eject: p.eject(), Clone: p.clone()}); got != d {
					t.Fatalf("%+v unpacked as %+v", d, got)
				}
			}
		}
	}
}

// materialise forms the whole flit that slot s of the packet whose header
// record is *h stands for: the record with the multicast bitstring shifted by
// the slot's hops, the slot's kind and index, and the index as the data word,
// as flit.AppendPacket lays a packet out. It is the tests' bridge to that
// oracle; the simulator itself never forms a flit.Flit.
func materialise(h *Header, s Slot) flit.Flit {
	return flit.Flit{
		Kind: s.Kind, Traffic: h.Traffic, ChainCCW: h.ChainCCW, Payload: uint32(s.Seq),
		Src: int(h.Src), Dst: int(h.Dst), Seq: int(s.Seq), PktLen: int(h.PktLen), Remain: int(h.Remain),
		PktID: h.PktID, MsgID: h.MsgID, Bits: h.Bits >> s.Hop, Gen: h.Gen,
	}
}

// TestPacketsMaterialiseAppendPacket: the table keeps a packet's header
// record as given, its length from Add, and the packet's slots with that
// record form exactly the flits flit.AppendPacket forms from its header, with
// the multicast bitstring shifted by each slot's hop count; a freed handle is
// the next one Add hands out.
func TestPacketsMaterialiseAppendPacket(t *testing.T) {
	var tbl Packets
	h := Header{Traffic: flit.BcastChain, ChainCCW: true, Src: 5, Dst: 1000, PktLen: 9, Remain: 12,
		PktID: 1 << 40, MsgID: 1 << 33, Bits: 0xF0F0_F0F0_F0F0_F0F1, Gen: -7}
	want := flit.AppendPacket(nil, flit.Flit{Traffic: flit.BcastChain, ChainCCW: true, Src: 5, Dst: 1000,
		Remain: 12, PktID: 1 << 40, MsgID: 1 << 33, Bits: 0xF0F0_F0F0_F0F0_F0F1, Gen: -7}, 5)
	first := tbl.Add(&Header{}, 2)
	slots := packetSlots(tbl.Add(&h, 5), 5)
	if tbl.Live() != 2 {
		t.Fatalf("%d live packets, want 2", tbl.Live())
	}
	stored := *tbl.Header(&slots[0])
	if h.PktLen = 5; stored != h {
		t.Fatalf("the table holds %+v\nwant %+v", stored, h)
	}
	for i := range slots {
		for _, hop := range []uint8{0, 1, 63, 64} {
			s := slots[i]
			s.Hop = hop
			w := want[i]
			w.Bits >>= hop
			if got := materialise(tbl.Header(&s), s); got != w {
				t.Fatalf("slot %d at hop %d materialised %+v\nwant %+v", i, hop, got, w)
			}
		}
	}
	tbl.Free(first.Pkt)
	if tbl.Live() != 1 {
		t.Fatalf("%d live packets after a free, want 1", tbl.Live())
	}
	if again := tbl.Add(&h, 5); again.Pkt != first.Pkt {
		t.Fatalf("Add returned handle %d, want the freed %d", again.Pkt, first.Pkt)
	}
}
