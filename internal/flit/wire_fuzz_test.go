package flit

import "testing"

// FuzzEncodeDecodeWire holds the 34-bit codec to an exact round trip: any
// word the decoder accepts must re-encode to the identical word, and any
// word it rejects must produce an error, never a panic.
func FuzzEncodeDecodeWire(f *testing.F) {
	seed := []Flit{
		{Kind: Header, Traffic: Unicast, Src: 3, Dst: 9, PktLen: 4},
		{Kind: Header, Traffic: Broadcast, Src: 13, Dst: 62, PktLen: 17, Remain: 31},
		{Kind: Header, Traffic: BcastChain, Src: 1, Dst: 2, PktLen: 2, Remain: 255, ChainCCW: true},
		{Kind: Header, Traffic: Multicast, Src: 0, Dst: 15, PktLen: 8},
		{Kind: Body, Payload: 0xDEADBEEF},
		{Kind: Tail, Payload: 0xFFFFFFFF},
	}
	for _, fl := range seed {
		w, err := EncodeWire(fl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w)
	}
	f.Add(uint64(3))                 // reserved flit type
	f.Add(uint64(1) << 34)           // too wide
	f.Add(uint64(1) | uint64(1)<<29) // reserved header bit
	f.Fuzz(func(t *testing.T, w uint64) {
		fl, err := DecodeWire(w)
		if err != nil {
			return // rejected without panicking: fine
		}
		w2, err := EncodeWire(fl)
		if err != nil {
			t.Fatalf("decoded %#x to %+v but cannot re-encode: %v", w, fl, err)
		}
		if w2 != w {
			t.Fatalf("round trip %#x -> %+v -> %#x", w, fl, w2)
		}
	})
}
