// Package buffer implements the parameterised flit FIFOs used as the input
// lanes of the switch (paper §2.3.1: "The buffers in the design are
// parametrized in width and depth", two lanes per input port).
//
// The FIFO exposes the same observable signals the hardware buffer drives:
// Full (used to build the CH_STATUS_N channel-status signal sent back to the
// upstream node) and Empty (which activates the VC arbiter). It is a plain
// ring buffer storing flits by value to keep the simulator allocation-free on
// the hot path.
//
// The switch datapath uses the in-place API — Head, Drop, PushFrom — so a
// flit is written into a slot once and read where it lies; Push, Peek and Pop
// are by-value conveniences over it for cold callers. flit.Flit holds no
// pointers, so a vacated slot is left as it is: clearing it would buy
// nothing.
package buffer

import (
	"fmt"

	"quarc/internal/flit"
)

// FIFO is a fixed-capacity flit queue. Construct with New, or embed the zero
// value and give it storage with Init.
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

// Init empties the FIFO and makes slots its storage; the capacity is
// len(slots). It lets an owner of many FIFOs carve them out of one slab
// instead of allocating each.
func (q *FIFO) Init(slots []flit.Flit) {
	if len(slots) == 0 {
		panic("buffer: Init with no slots")
	}
	q.buf, q.head, q.size = slots, 0, 0
}

// Cap returns the capacity in flits.
func (q *FIFO) Cap() int { return len(q.buf) }

// Len returns the number of buffered flits.
func (q *FIFO) Len() int { return q.size }

// Free returns the remaining capacity.
func (q *FIFO) Free() int { return len(q.buf) - q.size }

// Empty mirrors the hardware empty signal.
func (q *FIFO) Empty() bool { return q.size == 0 }

// Full mirrors the hardware full signal.
func (q *FIFO) Full() bool { return q.size == len(q.buf) }

// slot returns the buffer index i places behind the head, 0 <= i <= Cap.
func (q *FIFO) slot(i int) int {
	at := q.head + i
	if at >= len(q.buf) {
		at -= len(q.buf)
	}
	return at
}

// PushFrom appends a copy of *f. It reports false (and stores nothing) when
// full; the hardware equivalent is a write-enable gated by the full signal.
//
//quarc:hotpath
func (q *FIFO) PushFrom(f *flit.Flit) bool {
	if q.size == len(q.buf) {
		return false
	}
	//quarc:allow hotpath: the push copy into the lane slot, one of the two a hop is allowed
	q.buf[q.slot(q.size)] = *f
	q.size++
	return true
}

// Head returns the head flit in its slot, or nil when empty. The slot keeps
// its bytes until the next push into this FIFO, even across Drop.
//
//quarc:hotpath
func (q *FIFO) Head() *flit.Flit {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Drop removes the head flit. The FIFO must not be empty.
//
//quarc:hotpath
func (q *FIFO) Drop() {
	if q.size == 0 {
		panic("buffer: Drop on empty FIFO")
	}
	q.head = q.slot(1)
	q.size--
}

// Push appends a flit by value; see PushFrom.
func (q *FIFO) Push(f flit.Flit) bool { return q.PushFrom(&f) }

// Peek returns a copy of the head flit without removing it. ok is false when
// empty.
func (q *FIFO) Peek() (f flit.Flit, ok bool) {
	h := q.Head()
	if h == nil {
		return flit.Flit{}, false
	}
	return *h, true
}

// Pop removes and returns the head flit. ok is false when empty.
func (q *FIFO) Pop() (f flit.Flit, ok bool) {
	h := q.Head()
	if h == nil {
		return flit.Flit{}, false
	}
	f = *h
	q.Drop()
	return f, true
}

// Snapshot returns a copy of the buffered flits in queue order (head
// first). It is an inspection hook for invariant checkers and tests and
// does not disturb the queue.
func (q *FIFO) Snapshot() []flit.Flit {
	out := make([]flit.Flit, q.size)
	for i := range out {
		out[i] = q.buf[q.slot(i)]
	}
	return out
}

// Reset discards all contents (reset_fsm_w in the paper's write controller).
func (q *FIFO) Reset() {
	for i := range q.buf {
		q.buf[i] = flit.Flit{}
	}
	q.head, q.size = 0, 0
}
