// Package trace records flit-level event traces from the fabric: per-hop
// forwarding and local delivery. Traces are the debugging substrate for a
// flit-level simulator — the equivalent of OMNeT++'s event log in the paper's
// toolchain — and are used by the integration tests to assert path-level
// properties (a packet's trace must equal its deterministic route) and
// printed by cmd/quarctrace.
//
// The buffer is a fixed-capacity ring so that always-on tracing of long runs
// keeps the most recent window without unbounded memory.
package trace

import "fmt"

// Kind classifies an event.
type Kind uint8

const (
	Forward Kind = iota // flit crossed a link (router output -> downstream input)
	Deliver             // flit delivered to a PE
)

func (k Kind) String() string {
	switch k {
	case Forward:
		return "forward"
	case Deliver:
		return "deliver"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	Cycle int64
	Kind  Kind
	Node  int // router where the event happened
	Out   int // output port (Forward) or -1
	VC    int // virtual channel (Forward) or -1
	PktID uint64
	MsgID uint64
	Seq   int // flit index within the packet
}

func (e Event) String() string {
	switch e.Kind {
	case Forward:
		return fmt.Sprintf("[%6d] %-7s node=%-2d out=%d vc=%d pkt=%d msg=%d flit=%d",
			e.Cycle, e.Kind, e.Node, e.Out, e.VC, e.PktID, e.MsgID, e.Seq)
	default:
		return fmt.Sprintf("[%6d] %-7s node=%-2d           pkt=%d msg=%d flit=%d",
			e.Cycle, e.Kind, e.Node, e.PktID, e.MsgID, e.Seq)
	}
}

// Buffer is a fixed-capacity event ring. The zero value is unusable; use
// NewBuffer.
type Buffer struct {
	ring    []Event
	next    int
	total   uint64
	wrapped bool
}

// NewBuffer returns a ring holding the most recent cap events.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		panic("trace: non-positive capacity")
	}
	return &Buffer{ring: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (b *Buffer) Record(e Event) {
	b.ring[b.next] = e
	b.next++
	b.total++
	if b.next == len(b.ring) {
		b.next = 0
		b.wrapped = true
	}
}

// Total returns how many events were ever recorded. With Len it lets the
// tracing tests tell a complete trace from a wrapped ring.
func (b *Buffer) Total() uint64 { return b.total }

// Len returns how many events are currently retained.
func (b *Buffer) Len() int {
	if b.wrapped {
		return len(b.ring)
	}
	return b.next
}

// Events returns retained events oldest-first.
func (b *Buffer) Events() []Event {
	if !b.wrapped {
		out := make([]Event, b.next)
		copy(out, b.ring[:b.next])
		return out
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}
