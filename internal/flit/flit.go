// Package flit defines the flit and packet formats of the Quarc NoC
// (paper §2.6, Fig 7) and the whole-flit view the wire codec speaks.
//
// A wormhole packet is a sequence of flits: one header, zero or more body
// flits, and one tail. On the wire a flit is 34 bits: a 32-bit payload plus
// the 2-bit flit type added by the transceiver's write controller (§2.4).
// Header flits carry the traffic type in their top 3 bits. The 34-bit wire
// encoding is implemented and tested so that the format is a faithful,
// executable specification.
//
// A Flit carries, besides its own word, its packet's header fields and
// simulator bookkeeping such as generation timestamps: it is the unit the
// wire codec and the link-level models speak. The simulated fabric does not
// use it. A packet is enqueued as a router.Header, kept once in the fabric's
// packet table, and lanes, links and source queues hold 12-byte
// router.Slots — the flit's kind, index and hop count plus the handle of
// that record — that together form exactly the flits AppendPacket lays out;
// the PE is delivered the record and the slot.
package flit

import "fmt"

// Kind is the 2-bit flit type in bits [1:0] of the wire format.
type Kind uint8

const (
	Body   Kind = 0 // payload flit following its header
	Header Kind = 1 // first flit; carries route and traffic type
	Tail   Kind = 2 // last flit; releases switch state along the path
)

func (k Kind) String() string {
	switch k {
	case Body:
		return "body"
	case Header:
		return "header"
	case Tail:
		return "tail"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Traffic is the 3-bit traffic type carried in the top bits of a header flit
// (paper Fig 7: unicast, multicast, broadcast). BcastChain is the
// broadcast-by-unicast packet used by the Spidergon baseline: a unicast whose
// receiving switch must deliver it locally, rewrite the header and retransmit
// it to the next node (paper §2.2).
type Traffic uint8

const (
	Unicast    Traffic = 0
	Multicast  Traffic = 1
	Broadcast  Traffic = 2
	BcastChain Traffic = 3
)

func (t Traffic) String() string {
	switch t {
	case Unicast:
		return "unicast"
	case Multicast:
		return "multicast"
	case Broadcast:
		return "broadcast"
	case BcastChain:
		return "bcast-chain"
	}
	return fmt.Sprintf("Traffic(%d)", uint8(t))
}

// Flit is one flit with its packet's header fields (see the package
// comment). Fields beyond the wire format (MsgID, timestamps, chain
// bookkeeping) are simulator-side metadata the hardware would keep in
// per-packet state or derive from the payload.
type Flit struct {
	Kind     Kind
	Traffic  Traffic // valid on header flits
	ChainCCW bool    // BcastChain: chain travels counter-clockwise
	Payload  uint32  // data word (body/tail)
	Src      int     // source node (header)
	Dst      int     // destination node: for broadcast/multicast branches this
	// is the *last* node of the branch per BRCP routing (§2.5.2)
	Seq    int    // flit index within the packet; 0 is the header
	PktLen int    // total flits in the packet (header carries it)
	Remain int    // BcastChain: how many nodes are still to be served after this one
	PktID  uint64 // unique per packet (per broadcast branch)
	MsgID  uint64 // unique per message (shared by branches of a broadcast)
	Bits   uint64 // multicast bitstring: bit i = node at hop distance i+1 is a target
	Gen    int64  // cycle the message was generated (for latency stats)
}

// Packet assembles the flits of a packet. A packet always has a header and a
// tail (paper §2.6: "Each packet must have the header and tail flits"), so
// the minimum length is 2. The returned slice aliases no shared state.
func Packet(h Flit, length int) []Flit {
	return AppendPacket(nil, h, length)
}

// AppendPacket assembles a packet into dst (which must be empty but may
// carry reusable capacity) and returns the extended slice. Every element is
// fully overwritten, so recycled storage never leaks state between packets.
// It is the definition of a packet's flits: the source queues in
// internal/network form the same flits, as slots over the fabric's packet
// table, one at a time as they inject, and are tested flit for flit against
// this expansion.
func AppendPacket(dst []Flit, h Flit, length int) []Flit {
	if length < 2 {
		panic("flit: packet length must be at least 2 (header + tail)")
	}
	h.Kind = Header
	h.Seq = 0
	h.PktLen = length
	dst = append(dst, h)
	for i := 1; i < length; i++ {
		f := h
		f.Kind = Body
		f.Seq = i
		f.Payload = uint32(i)
		if i == length-1 {
			f.Kind = Tail
		}
		dst = append(dst, f)
	}
	return dst
}

// Validate checks the structural invariants of a packet: header first, tail
// last, bodies in between, consistent identity fields and sequence numbers.
func Validate(p []Flit) error {
	if len(p) < 2 {
		return fmt.Errorf("flit: packet of %d flits, need at least 2", len(p))
	}
	h := p[0]
	if h.Kind != Header {
		return fmt.Errorf("flit: first flit is %v, want header", h.Kind)
	}
	if h.PktLen != len(p) {
		return fmt.Errorf("flit: header PktLen %d != packet length %d", h.PktLen, len(p))
	}
	for i, f := range p {
		if f.Seq != i {
			return fmt.Errorf("flit: flit %d has Seq %d", i, f.Seq)
		}
		if f.PktID != h.PktID {
			return fmt.Errorf("flit: flit %d PktID mismatch", i)
		}
		switch {
		case i == 0:
			// already checked
		case i == len(p)-1:
			if f.Kind != Tail {
				return fmt.Errorf("flit: last flit is %v, want tail", f.Kind)
			}
		default:
			if f.Kind != Body {
				return fmt.Errorf("flit: flit %d is %v, want body", i, f.Kind)
			}
		}
	}
	return nil
}
