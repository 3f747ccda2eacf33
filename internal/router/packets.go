package router

import "quarc/internal/flit"

// Slot is one buffered flit: what a lane slot holds, a link carries and a
// source queue offers. The paper's flit is a 34-bit word (§2.6, Fig 7): a
// 2-bit type and a 32-bit data word, only the header's carrying the route
// and the length. A slot keeps the type, the handle of its packet's header
// record in the fabric's packet table, its index within the packet and a hop
// count: 12 bytes. A body or tail flit's data word is its index, so the
// slot keeps no other.
type Slot struct {
	Pkt  uint32    // packet-table handle of the packet's header record
	Seq  int32     // flit index within the packet; 0 is the header
	Kind flit.Kind // header, body or tail
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

// Header is a packet's header record: what the paper's header flit carries
// (traffic type, destination, length, multicast bitstring) and the simulator's
// per-packet bookkeeping (ids, source, generation cycle, chain state), node
// ids and counts narrowed to 32 bits (the table's footprint is the
// fabric's). It is the one packet representation from enqueue to delivery:
// an adapter enqueues one, routing reads it with its header slot's hop
// count, and the PE receives it with each delivered slot.
type Header struct {
	PktID, MsgID uint64
	// Bits is the multicast bitstring as injected: bit i marks the node
	// i+1 hops down the stream. A flit reads it shifted right by its
	// slot's Hop.
	Bits     uint64
	Gen      int64 // cycle the message was generated (for latency stats)
	Src, Dst int32 // Dst of a broadcast or multicast branch is its last node (§2.5.2)
	PktLen   int32 // flits in the packet
	Remain   int32 // BcastChain: nodes still to serve after Dst
	Traffic  flit.Traffic
	ChainCCW bool // BcastChain: the chain travels counter-clockwise
}

// Add records *h, with PktLen set to length, as the header of a new packet
// of length flits and returns the packet's header slot.
//
//quarc:hotpath
func (t *Packets) Add(h *Header, length int) Slot {
	var pkt uint32
	if n := len(t.free); n > 0 {
		pkt = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		pkt = uint32(len(t.hdr))
		t.hdr = append(t.hdr, Header{})
	}
	t.hdr[pkt] = *h
	t.hdr[pkt].PktLen = int32(length)
	return Slot{Pkt: pkt, Kind: flit.Header}
}

// Free releases the handle of a packet no slot names any more.
//
//quarc:hotpath
func (t *Packets) Free(pkt uint32) { t.free = append(t.free, pkt) }

// Live returns the number of packets in the table.
func (t *Packets) Live() int { return len(t.hdr) - len(t.free) }

// Header returns the header record of slot s's packet. It stays valid until
// the next Add, which may move the table; its Bits are the bitstring as
// injected, which the flit reads shifted right by s.Hop.
//
//quarc:hotpath
func (t *Packets) Header(s *Slot) *Header { return &t.hdr[s.Pkt] }
