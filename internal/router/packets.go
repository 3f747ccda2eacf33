package router

import "quarc/internal/flit"

// Slot is one buffered flit: what a lane slot holds, a link carries and a
// source queue offers. The paper's flit is a 34-bit word (§2.6, Fig 7): a
// 2-bit type and a 32-bit data word, the header's word carrying the route and
// the length. A slot is that word plus the handle of its packet's header
// record in the fabric's packet table, its index within the packet and a hop
// count: 16 bytes, where the flit.Flit it materialises into (Packets.Flit)
// is 80.
type Slot struct {
	Pkt     uint32    // packet-table handle of the packet's header record
	Seq     int32     // flit index within the packet; 0 is the header
	Payload uint32    // the data word
	Kind    flit.Kind // header, body or tail
	// Hop counts the times the flit was forwarded out of a network input
	// port, saturating at 64. The header's multicast bitstring is
	// hop-indexed, so the flit reads it shifted right by Hop: bit 0 always
	// means "the node this flit is arriving at".
	Hop uint8
}

// Packets is a fabric's packet table: the header record of every live packet,
// stored once and named by a 32-bit handle that each of its slots carries.
// A packet enters the table when its source queues it (Add) and leaves it
// when its tail leaves the network (Free); a free list recycles handles, so a
// steady-state simulation allocates nothing. Add and Free run only in the
// fabric's single-threaded sections; the node-local passes only read.
type Packets struct {
	hdr  []Header
	free []uint32
}

// Header is a packet's header record: the per-packet fields of flit.Flit,
// node ids and counts narrowed to 32 bits (the table's footprint is the
// fabric's), and no per-flit field. It is what routing reads: a RouteFunc
// gets the record and its header slot's hop count.
type Header struct {
	PktID, MsgID, Bits uint64
	Gen                int64
	Src, Dst           int32
	PktLen, Remain     int32
	Traffic            flit.Traffic
	ChainCCW           bool
}

// Add records *h as the header of a new packet of length flits and returns
// the packet's header slot. The record is normalised as flit.AppendPacket
// normalises a header: the per-flit fields (Kind, Seq, Payload) are the
// slot's, PktLen is length. The header's data word is the slot's Payload.
//
//quarc:hotpath
func (t *Packets) Add(h *flit.Flit, length int) Slot {
	var pkt uint32
	if n := len(t.free); n > 0 {
		pkt = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		pkt = uint32(len(t.hdr))
		t.hdr = append(t.hdr, Header{})
	}
	t.hdr[pkt] = Header{
		PktID: h.PktID, MsgID: h.MsgID, Bits: h.Bits, Gen: h.Gen,
		Src: int32(h.Src), Dst: int32(h.Dst), PktLen: int32(length), Remain: int32(h.Remain),
		Traffic: h.Traffic, ChainCCW: h.ChainCCW,
	}
	return Slot{Pkt: pkt, Kind: flit.Header, Payload: h.Payload}
}

// Free releases the handle of a packet no slot names any more.
//
//quarc:hotpath
func (t *Packets) Free(pkt uint32) { t.free = append(t.free, pkt) }

// Live returns the number of packets in the table.
func (t *Packets) Live() int { return len(t.hdr) - len(t.free) }

// Header returns the header record of slot s's packet, which stays valid
// while the packet is in the table. Its Bits are the bitstring as injected:
// the flit reads them shifted right by s.Hop.
//
//quarc:hotpath
func (t *Packets) Header(s *Slot) *Header { return &t.hdr[s.Pkt] }

// Flit materialises slot s for the PE: its packet's header record with the
// multicast bitstring shifted by the slot's hops, and the slot's kind, index
// and data word. For every flit of a packet it equals, field for field, the
// flit flit.AppendPacket forms from the header Add was given, as that flit
// reads after s.Hop forwards.
//
//quarc:hotpath
//quarc:allow hotpath: a flit is materialised for the PE once per delivery, never per hop or per routed header
func (t *Packets) Flit(s *Slot) flit.Flit {
	h := &t.hdr[s.Pkt]
	return flit.Flit{
		Kind: s.Kind, Traffic: h.Traffic, ChainCCW: h.ChainCCW, Payload: s.Payload,
		Src: int(h.Src), Dst: int(h.Dst), Seq: int(s.Seq), PktLen: int(h.PktLen), Remain: int(h.Remain),
		PktID: h.PktID, MsgID: h.MsgID, Bits: h.Bits >> s.Hop, Gen: h.Gen,
	}
}
