package trace

import (
	"strings"
	"testing"
)

func ev(cycle int64, k Kind, node int, pkt uint64, seq int) Event {
	return Event{Cycle: cycle, Kind: k, Node: node, Out: -1, VC: -1, PktID: pkt, Seq: seq}
}

func TestRingRetainsMostRecent(t *testing.T) {
	b := NewBuffer(3)
	for i := int64(0); i < 5; i++ {
		b.Record(ev(i, Forward, int(i), 1, 0))
	}
	if b.Total() != 5 || b.Len() != 3 {
		t.Fatalf("total/len = %d/%d", b.Total(), b.Len())
	}
	got := b.Events()
	if len(got) != 3 || got[0].Cycle != 2 || got[2].Cycle != 4 {
		t.Fatalf("events = %+v", got)
	}
}

func TestEventsBeforeWrap(t *testing.T) {
	b := NewBuffer(8)
	b.Record(ev(1, Forward, 0, 1, 0))
	b.Record(ev(2, Deliver, 1, 1, 0))
	got := b.Events()
	if len(got) != 2 || got[0].Kind != Forward || got[1].Kind != Deliver {
		t.Fatalf("events = %+v", got)
	}
}

func TestFilter(t *testing.T) {
	b := NewBuffer(16)
	for i := 0; i < 10; i++ {
		b.Record(ev(int64(i), Forward, i%3, uint64(i%2), 0))
	}
	odd := b.Filter(func(e Event) bool { return e.PktID == 1 })
	if len(odd) != 5 {
		t.Fatalf("filtered %d events, want 5", len(odd))
	}
}

func TestPacketPath(t *testing.T) {
	b := NewBuffer(16)
	b.Record(ev(1, Forward, 0, 7, 0))
	b.Record(ev(1, Forward, 3, 8, 0)) // other packet
	b.Record(ev(2, Forward, 1, 7, 0))
	b.Record(ev(2, Forward, 1, 7, 1)) // body flit: not part of the header path
	b.Record(ev(3, Deliver, 2, 7, 0))
	path := b.PacketPath(7)
	want := []int{0, 1, 2}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDumpAndString(t *testing.T) {
	b := NewBuffer(4)
	b.Record(ev(1, Deliver, 0, 1, 0))
	b.Record(Event{Cycle: 2, Kind: Forward, Node: 1, Out: 2, VC: 1, PktID: 1, Seq: 0})
	s := b.String()
	if !strings.Contains(s, "deliver") || !strings.Contains(s, "forward") {
		t.Fatalf("dump = %q", s)
	}
	if !strings.Contains(s, "out=2 vc=1") {
		t.Fatalf("forward line lacks port/vc: %q", s)
	}
}

func TestKindString(t *testing.T) {
	if Forward.String() != "forward" ||
		Deliver.String() != "deliver" || Kind(9).String() == "" {
		t.Fatal("kind strings wrong")
	}
}

func TestNewBufferValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewBuffer(0)
}

func BenchmarkRecord(b *testing.B) {
	buf := NewBuffer(1024)
	e := ev(1, Forward, 0, 1, 0)
	for i := 0; i < b.N; i++ {
		buf.Record(e)
	}
}
