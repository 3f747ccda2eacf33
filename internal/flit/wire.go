package flit

import "fmt"

// Wire encoding of the 34-bit flit (paper Fig 7), packed into the low 34
// bits of a uint64.
//
//	bits [1:0]   flit type (Body=0, Header=1, Tail=2)
//	body/tail:
//	bits [33:2]  32-bit payload
//	header:
//	bits [7:2]   destination node (6 bits; the paper assumes N <= 64, §2.6)
//	bits [13:8]  source node
//	bits [19:14] packet length in flits (up to 63)
//	bits [27:20] chain remaining-count (BcastChain) or low PktID bits
//	bit  [28]    chain direction (BcastChain: 1 = counter-clockwise)
//	bits [30:29] reserved
//	bits [33:31] traffic type (unicast/multicast/broadcast/bcast-chain)
//
// A multicast's bitstring is not part of the header word: the paper carries
// it in the first body flits ("multi flit headers", §2.6), and the simulator
// carries it in the packet's header record (router.Header.Bits).
const (
	WireBits = 34
	WireMask = (uint64(1) << WireBits) - 1

	// MaxNodes is the largest network the single-flit header can address.
	MaxNodes = 64
	// MaxPktLen is the largest packet length the header length field holds.
	MaxPktLen = 63
)

// EncodeWire packs a flit into its 34-bit wire representation.
func EncodeWire(f Flit) (uint64, error) {
	w := uint64(f.Kind) & 0x3
	if f.Kind == Header {
		if f.Dst < 0 || f.Dst >= MaxNodes {
			return 0, fmt.Errorf("flit: destination %d does not fit 6 bits", f.Dst)
		}
		if f.Src < 0 || f.Src >= MaxNodes {
			return 0, fmt.Errorf("flit: source %d does not fit 6 bits", f.Src)
		}
		if f.PktLen < 2 || f.PktLen > MaxPktLen {
			return 0, fmt.Errorf("flit: packet length %d does not fit", f.PktLen)
		}
		if f.Remain < 0 || f.Remain > 255 {
			return 0, fmt.Errorf("flit: chain count %d does not fit 8 bits", f.Remain)
		}
		if f.Traffic > BcastChain {
			return 0, fmt.Errorf("flit: invalid traffic type %d", f.Traffic)
		}
		w |= uint64(f.Dst) << 2
		w |= uint64(f.Src) << 8
		w |= uint64(f.PktLen) << 14
		w |= uint64(f.Remain) << 20
		if f.ChainCCW {
			w |= 1 << 28
		}
		w |= uint64(f.Traffic) << 31
	} else {
		w |= uint64(f.Payload) << 2
	}
	return w & WireMask, nil
}

// DecodeWire unpacks a 34-bit wire word. Only wire-visible fields are
// populated; simulator metadata (MsgID, Gen, ...) is zero.
//
// The decoder accepts exactly the words EncodeWire can produce: malformed
// words — wider than 34 bits, reserved flit type, reserved header bits set,
// out-of-range traffic type or a packet length the format forbids — are
// rejected with an error, never a panic, so DecodeWire(w) == f implies
// EncodeWire(f) == w (the fuzz harness holds the codec to this).
func DecodeWire(w uint64) (Flit, error) {
	if w&^WireMask != 0 {
		return Flit{}, fmt.Errorf("flit: word %#x wider than 34 bits", w)
	}
	var f Flit
	k := Kind(w & 0x3)
	if k != Body && k != Header && k != Tail {
		return Flit{}, fmt.Errorf("flit: invalid flit type %d", k)
	}
	f.Kind = k
	if k == Header {
		if w>>29&0x3 != 0 {
			return Flit{}, fmt.Errorf("flit: reserved header bits set in %#x", w)
		}
		f.Dst = int(w >> 2 & 0x3F)
		f.Src = int(w >> 8 & 0x3F)
		f.PktLen = int(w >> 14 & 0x3F)
		if f.PktLen < 2 {
			return Flit{}, fmt.Errorf("flit: header packet length %d < 2", f.PktLen)
		}
		f.Remain = int(w >> 20 & 0xFF)
		f.ChainCCW = w>>28&1 != 0
		f.Traffic = Traffic(w >> 31 & 0x7)
		if f.Traffic > BcastChain {
			return Flit{}, fmt.Errorf("flit: invalid traffic type %d", f.Traffic)
		}
	} else {
		f.Payload = uint32(w >> 2)
	}
	return f, nil
}
