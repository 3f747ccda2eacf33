package flit

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPacketStructure(t *testing.T) {
	h := Flit{Src: 3, Dst: 9, Traffic: Unicast, PktID: 42, MsgID: 7, Gen: 100}
	for _, n := range []int{2, 3, 8, 16, 32} {
		p := Packet(h, n)
		if len(p) != n {
			t.Fatalf("Packet length %d, want %d", len(p), n)
		}
		if err := Validate(p); err != nil {
			t.Fatalf("Validate(%d flits): %v", n, err)
		}
		if p[0].Kind != Header || p[n-1].Kind != Tail {
			t.Fatalf("packet ends are %v/%v", p[0].Kind, p[n-1].Kind)
		}
		for i := 1; i < n-1; i++ {
			if p[i].Kind != Body {
				t.Fatalf("flit %d is %v, want body", i, p[i].Kind)
			}
		}
		for i, f := range p {
			if f.Gen != 100 || f.MsgID != 7 || f.PktID != 42 {
				t.Fatalf("flit %d lost metadata: %+v", i, f)
			}
		}
	}
}

func TestPacketTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Packet(h, 1) did not panic")
		}
	}()
	Packet(Flit{}, 1)
}

func TestValidateRejectsCorruption(t *testing.T) {
	base := func() []Flit { return Packet(Flit{Src: 1, Dst: 2, PktID: 5}, 4) }

	cases := []struct {
		name   string
		mutate func(p []Flit)
		want   string
	}{
		{"header not first", func(p []Flit) { p[0].Kind = Body }, "want header"},
		{"tail missing", func(p []Flit) { p[3].Kind = Body }, "want tail"},
		{"body wrong kind", func(p []Flit) { p[1].Kind = Tail }, "want body"},
		{"bad seq", func(p []Flit) { p[2].Seq = 9 }, "Seq"},
		{"pktid mismatch", func(p []Flit) { p[1].PktID = 99 }, "PktID"},
		{"bad len", func(p []Flit) { p[0].PktLen = 3 }, "PktLen"},
	}
	for _, tc := range cases {
		p := base()
		tc.mutate(p)
		err := Validate(p)
		if err == nil {
			t.Errorf("%s: Validate accepted corrupted packet", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestKindAndTrafficStrings(t *testing.T) {
	if Header.String() != "header" || Body.String() != "body" || Tail.String() != "tail" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() == "" || Traffic(7).String() == "" {
		t.Fatal("unknown values must still produce a string")
	}
	for tr, want := range map[Traffic]string{
		Unicast: "unicast", Multicast: "multicast",
		Broadcast: "broadcast", BcastChain: "bcast-chain",
	} {
		if tr.String() != want {
			t.Fatalf("Traffic(%d).String() = %q, want %q", tr, tr, want)
		}
	}
}

func TestWireRoundTripHeader(t *testing.T) {
	f := Flit{Kind: Header, Traffic: Broadcast, Src: 13, Dst: 62, PktLen: 17, Remain: 31}
	w, err := EncodeWire(f)
	if err != nil {
		t.Fatal(err)
	}
	if w&^WireMask != 0 {
		t.Fatalf("encoded word %#x exceeds 34 bits", w)
	}
	g, err := DecodeWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != f.Kind || g.Traffic != f.Traffic || g.Src != f.Src ||
		g.Dst != f.Dst || g.PktLen != f.PktLen || g.Remain != f.Remain {
		t.Fatalf("round trip mismatch: %+v vs %+v", f, g)
	}
}

func TestWireRoundTripBody(t *testing.T) {
	f := Flit{Kind: Body, Payload: 0xDEADBEEF}
	w, err := EncodeWire(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if g.Payload != f.Payload || g.Kind != Body {
		t.Fatalf("round trip mismatch: %+v vs %+v", f, g)
	}
}

func TestWireHeaderFieldRanges(t *testing.T) {
	bad := []Flit{
		{Kind: Header, Dst: 64, PktLen: 4},
		{Kind: Header, Dst: -1, PktLen: 4},
		{Kind: Header, Src: 64, PktLen: 4},
		{Kind: Header, PktLen: 1},
		{Kind: Header, PktLen: 64},
		{Kind: Header, PktLen: 4, Remain: 256},
	}
	for i, f := range bad {
		if _, err := EncodeWire(f); err == nil {
			t.Errorf("case %d: EncodeWire accepted out-of-range flit %+v", i, f)
		}
	}
}

func TestDecodeWireRejectsWideWord(t *testing.T) {
	if _, err := DecodeWire(uint64(1) << 34); err == nil {
		t.Fatal("DecodeWire accepted a 35-bit word")
	}
}

func TestDecodeWireRejectsBadType(t *testing.T) {
	if _, err := DecodeWire(3); err == nil { // type bits 0b11 are reserved
		t.Fatal("DecodeWire accepted reserved flit type")
	}
}

// Property: every header flit with in-range fields round-trips exactly.
func TestWireRoundTripProperty(t *testing.T) {
	check := func(src, dst, plen, remain uint8, tr uint8) bool {
		f := Flit{
			Kind:    Header,
			Traffic: Traffic(tr % 4),
			Src:     int(src % MaxNodes),
			Dst:     int(dst % MaxNodes),
			PktLen:  int(plen%(MaxPktLen-1)) + 2,
			Remain:  int(remain),
		}
		w, err := EncodeWire(f)
		if err != nil {
			return false
		}
		g, err := DecodeWire(w)
		if err != nil {
			return false
		}
		return g.Kind == f.Kind && g.Traffic == f.Traffic && g.Src == f.Src &&
			g.Dst == f.Dst && g.PktLen == f.PktLen && g.Remain == f.Remain
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every body payload round-trips exactly.
func TestWireBodyPayloadProperty(t *testing.T) {
	check := func(payload uint32, tail bool) bool {
		k := Body
		if tail {
			k = Tail
		}
		w, err := EncodeWire(Flit{Kind: k, Payload: payload})
		if err != nil {
			return false
		}
		g, err := DecodeWire(w)
		if err != nil {
			return false
		}
		return g.Payload == payload && g.Kind == k
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePacketMulticastBitstring(t *testing.T) {
	h := Flit{Src: 0, Dst: 15, Traffic: Multicast, Bits: 0xABCD_EF01_2345_6789, PktID: 1}
	p := Packet(h, 8)
	words, err := EncodePacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 8 {
		t.Fatalf("encoded %d words, want 8", len(words))
	}
	q, err := DecodePacket(words)
	if err != nil {
		t.Fatal(err)
	}
	if q[0].Bits != h.Bits {
		t.Fatalf("bitstring lost: %#x, want %#x", q[0].Bits, h.Bits)
	}
	if q[0].Traffic != Multicast || q[0].Src != 0 || q[0].Dst != 15 {
		t.Fatalf("header fields lost: %+v", q[0])
	}
}

func TestEncodePacketUnicastRoundTrip(t *testing.T) {
	h := Flit{Src: 5, Dst: 10, Traffic: Unicast, PktID: 9}
	p := Packet(h, 4)
	words, err := EncodePacket(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodePacket(words)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(q); err != nil {
		t.Fatalf("decoded packet invalid: %v", err)
	}
	for i := range q {
		if q[i].Kind != p[i].Kind {
			t.Fatalf("flit %d kind %v, want %v", i, q[i].Kind, p[i].Kind)
		}
	}
}

func TestDecodePacketErrors(t *testing.T) {
	if _, err := DecodePacket([]uint64{1}); err == nil {
		t.Fatal("accepted one-word packet")
	}
	// Body flit first.
	bw, _ := EncodeWire(Flit{Kind: Body, Payload: 1})
	if _, err := DecodePacket([]uint64{bw, bw}); err == nil {
		t.Fatal("accepted packet starting with body flit")
	}
	// Header with wrong length field.
	hw, _ := EncodeWire(Flit{Kind: Header, PktLen: 5, Traffic: Unicast})
	tw, _ := EncodeWire(Flit{Kind: Tail})
	if _, err := DecodePacket([]uint64{hw, tw}); err == nil {
		t.Fatal("accepted packet with wrong PktLen")
	}
}

func BenchmarkEncodeWire(b *testing.B) {
	f := Flit{Kind: Header, Traffic: Broadcast, Src: 1, Dst: 2, PktLen: 16}
	for i := 0; i < b.N; i++ {
		if _, err := EncodeWire(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketAssembly(b *testing.B) {
	h := Flit{Src: 3, Dst: 9, Traffic: Unicast}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Packet(h, 16)
	}
}

// TestFlitSize pins Flit at 80 bytes. A Flit is no longer the per-hop unit —
// lanes, links and source queues move 16-byte router.Slots — but it is the
// header record a packet is enqueued with, the type the wire codec,
// AppendPacket and the tests speak, and what every delivered flit is
// materialised into for the PE and the tracker. The fields are
// ordered small-to-large to leave a single byte of padding, and growing the
// struct should be a reviewed decision, not a side effect of adding a field.
func TestFlitSize(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(Flit{}) = %d, want 80", got)
	}
}
