// Package buffer implements a parameterised flit FIFO (paper §2.3.1: "The
// buffers in the design are parametrized in width and depth", two lanes per
// input port). The end-to-end benchmark's per-layer ladder times it.
//
// It is a plain ring buffer storing flits by value. The switch datapath does
// not use it: internal/router keeps its lanes as rings over one slot slab per
// switch.
package buffer

import (
	"fmt"

	"quarc/internal/flit"
)

// FIFO is a fixed-capacity flit queue. Construct with New.
type FIFO struct {
	buf  []flit.Flit
	head int
	size int
}

// New returns a FIFO with the given capacity (depth in flits). Depth must be
// positive.
func New(depth int) *FIFO {
	if depth <= 0 {
		panic(fmt.Sprintf("buffer: non-positive depth %d", depth))
	}
	return &FIFO{buf: make([]flit.Flit, depth)}
}

// Len returns the number of buffered flits.
func (q *FIFO) Len() int { return q.size }

// Push appends f. It reports false (and stores nothing) when full; the
// hardware equivalent is a write-enable gated by the full signal.
func (q *FIFO) Push(f flit.Flit) bool {
	if q.size == len(q.buf) {
		return false
	}
	at := q.head + q.size
	if at >= len(q.buf) {
		at -= len(q.buf)
	}
	q.buf[at] = f
	q.size++
	return true
}

// Pop removes and returns the head flit. ok is false when empty.
func (q *FIFO) Pop() (f flit.Flit, ok bool) {
	if q.size == 0 {
		return flit.Flit{}, false
	}
	f = q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return f, true
}
