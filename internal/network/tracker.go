package network

import "fmt"

// MessageClass is the statistics class of a message.
type MessageClass int

const (
	ClassUnicast MessageClass = iota
	ClassMulticast
	ClassBroadcast
)

func (c MessageClass) String() string {
	switch c {
	case ClassUnicast:
		return "unicast"
	case ClassMulticast:
		return "multicast"
	case ClassBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("MessageClass(%d)", int(c))
}

// MessageRecord is the completed lifecycle of one message.
type MessageRecord struct {
	MsgID     uint64
	Class     MessageClass
	Src       int
	Gen       int64 // generation cycle
	First     int64 // first delivery (tail at some destination)
	Last      int64 // final delivery: completion for collectives
	Expected  int   // destinations
	Delivered int
	DeliSum   int64 // sum of delivery cycles (for mean-per-delivery stats)
}

// Tracker follows in-flight messages: adapters register a message when its
// packets are enqueued and report each destination's tail arrival; the
// tracker finalises the record when all destinations have been served.
type Tracker struct {
	inflight map[uint64]*trackState
	OnDone   func(MessageRecord)

	// free recycles completed trackStates so steady-state registration does
	// not allocate; the list grows to the peak in-flight population.
	free []*trackState

	completed  uint64
	duplicates uint64
}

type trackState struct {
	rec  MessageRecord
	mask uint64 // delivered-node bitmask, nodes 0..63
	// maskHi extends the bitmask for nodes >= 64 (word w covers nodes
	// 64w+64 .. 64w+127). Lazily grown, recycled with the state so large-N
	// steady-state registration stays allocation-free.
	maskHi []uint64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{inflight: make(map[uint64]*trackState)}
}

// Register announces a message entering the network.
//
//quarc:hotpath
func (t *Tracker) Register(msgID uint64, class MessageClass, src int, gen int64, expected int) {
	if expected <= 0 {
		panic("network: message with no destinations")
	}
	if _, dup := t.inflight[msgID]; dup {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("network: duplicate message id %d", msgID))
	}
	var st *trackState
	if n := len(t.free); n > 0 {
		st = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		st = new(trackState)
	}
	st.rec = MessageRecord{
		MsgID: msgID, Class: class, Src: src, Gen: gen, Expected: expected, First: -1,
	}
	st.mask = 0
	for i := range st.maskHi {
		st.maskHi[i] = 0
	}
	t.inflight[msgID] = st
}

// Delivered reports the tail of msgID arriving at node. Unknown ids panic
// (they indicate a routing bug); duplicate deliveries to the same node are
// counted and reported via Duplicates (the Quarc broadcast must never
// produce one).
//
//quarc:hotpath
func (t *Tracker) Delivered(msgID uint64, node int, now int64) {
	st, ok := t.inflight[msgID]
	if !ok {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("network: delivery for unknown message %d", msgID))
	}
	// A single-destination message completes on its first delivery, so it
	// can have no duplicate to catch: only collectives keep the mask (and
	// only they grow maskHi, whose capacity the free list keeps).
	if st.rec.Expected > 1 && st.mark(node) {
		t.duplicates++
		return
	}
	st.rec.Delivered++
	st.rec.DeliSum += now
	if st.rec.First < 0 {
		st.rec.First = now
	}
	st.rec.Last = now
	if st.rec.Delivered == st.rec.Expected {
		t.completed++
		delete(t.inflight, msgID)
		if t.OnDone != nil {
			t.OnDone(st.rec)
		}
		t.free = append(t.free, st)
	}
}

// mark records a delivery at node in the delivered-node mask and reports
// whether one was recorded there already.
//
//quarc:hotpath
func (st *trackState) mark(node int) (dup bool) {
	bit := uint64(1) << uint(node&63)
	w := node >> 6
	if w == 0 {
		dup = st.mask&bit != 0
		st.mask |= bit
		return dup
	}
	for len(st.maskHi) < w {
		st.maskHi = append(st.maskHi, 0)
	}
	dup = st.maskHi[w-1]&bit != 0
	st.maskHi[w-1] |= bit
	return dup
}

// InFlight returns the number of incomplete messages.
func (t *Tracker) InFlight() int { return len(t.inflight) }

// Completed returns the number of finished messages.
func (t *Tracker) Completed() uint64 { return t.completed }

// Duplicates returns how many redundant deliveries were observed. A correct
// Quarc/Spidergon configuration produces zero.
func (t *Tracker) Duplicates() uint64 { return t.duplicates }
