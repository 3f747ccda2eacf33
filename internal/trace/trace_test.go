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

func TestEventString(t *testing.T) {
	if s := ev(1, Deliver, 0, 1, 0).String(); !strings.Contains(s, "deliver") {
		t.Fatalf("deliver line = %q", s)
	}
	s := Event{Cycle: 2, Kind: Forward, Node: 1, Out: 2, VC: 1, PktID: 1, Seq: 0}.String()
	if !strings.Contains(s, "forward") || !strings.Contains(s, "out=2 vc=1") {
		t.Fatalf("forward line lacks kind or port/vc: %q", s)
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
