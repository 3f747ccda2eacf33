package network

import (
	"fmt"

	"quarc/internal/router"
)

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
//
// What it keeps depends on the message class. A unicast is one bit in a
// sliding window over message ids, set from Register to delivery: its one
// delivery completes it, and its packet's header record holds everything
// else its record needs (the message id, source and generation cycle of the
// paper's header, §2.6). A broadcast or multicast keeps a full record and a
// delivered-node mask in a map, recycled through a free list, so partial
// deliveries accumulate and a duplicate delivery is caught. A unicast the
// window cannot hold (an id below the window's first word, or too far past
// it) is tracked like a collective; the fabric issues ids in order, so its
// unicasts never are.
type Tracker struct {
	OnDone func(MessageRecord)

	unicasts idWindow
	inflight map[uint64]*trackState // collectives, and unicasts the window cannot hold

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
	if _, dup := t.inflight[msgID]; dup || t.unicasts.has(msgID) {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("network: duplicate message id %d", msgID))
	}
	if class == ClassUnicast && expected == 1 && t.unicasts.add(msgID) {
		return
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

// Delivered reports the arrival at node of the tail of a packet whose header
// record is *h, of message h.MsgID. Unknown ids panic (they indicate a
// routing bug); duplicate deliveries to the same node are counted and
// reported via Duplicates (the Quarc broadcast must never produce one).
//
//quarc:hotpath
func (t *Tracker) Delivered(h *router.Header, node int, now int64) {
	msgID := h.MsgID
	if t.unicasts.remove(msgID) {
		t.completed++
		if t.OnDone != nil {
			t.OnDone(MessageRecord{
				MsgID: msgID, Class: ClassUnicast, Src: int(h.Src), Gen: h.Gen,
				First: now, Last: now, Expected: 1, Delivered: 1, DeliSum: now,
			})
		}
		return
	}
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
func (t *Tracker) InFlight() int { return len(t.inflight) + t.unicasts.n }

// Completed returns the number of finished messages.
func (t *Tracker) Completed() uint64 { return t.completed }

// Duplicates returns how many redundant deliveries were observed. A correct
// Quarc/Spidergon configuration produces zero.
func (t *Tracker) Duplicates() uint64 { return t.duplicates }

// maxWindowWords bounds the span of the unicast window: 2^16 words, 4 Mi
// message ids in 512 KiB.
const maxWindowWords = 1 << 16

// idWindow is a set of message ids kept as a bitmap over the ids from the
// oldest member to the newest. Message ids are issued in order
// (Fabric.NextMsgID), so the bitmap spans the messages in flight; its drained
// prefix is compacted away as PacketQueue compacts its own, and the backing
// array is reused, so a steady-state simulation adds and removes without
// allocating.
type idWindow struct {
	words []uint64 // words[i] bit b: id 64*(lo+i)+b is a member
	lo    uint64   // id>>6 of the ids words[0] covers
	head  int      // words[:head] are zero; words[head] is not while n > 0
	n     int      // members
}

// has reports whether id is a member.
//
//quarc:hotpath
func (w *idWindow) has(id uint64) bool {
	i, ok := w.index(id)
	return ok && w.words[i]&(1<<(id&63)) != 0
}

// index returns the word of the window covering id, if one does.
//
//quarc:hotpath
func (w *idWindow) index(id uint64) (int, bool) {
	word := id >> 6
	if word < w.lo || word-w.lo >= uint64(len(w.words)) {
		return 0, false
	}
	return int(word - w.lo), true
}

// add makes id, not a member, a member. It reports false, leaving the
// window as it was, when id lies before the window's first word or would
// stretch it past maxWindowWords.
//
//quarc:hotpath
func (w *idWindow) add(id uint64) bool {
	word := id >> 6
	if len(w.words) == 0 {
		w.lo = word
	}
	if word < w.lo || word-w.lo >= uint64(w.head)+maxWindowWords {
		return false
	}
	i := int(word - w.lo)
	for len(w.words) <= i {
		w.words = append(w.words, 0)
	}
	w.words[i] |= 1 << (id & 63)
	w.head = min(w.head, i)
	w.n++
	return true
}

// remove takes id out of the window and reports whether it was a member.
//
//quarc:hotpath
func (w *idWindow) remove(id uint64) bool {
	i, ok := w.index(id)
	bit := uint64(1) << (id & 63)
	if !ok || w.words[i]&bit == 0 {
		return false
	}
	w.words[i] &^= bit
	w.n--
	switch {
	case w.n == 0:
		w.words, w.head = w.words[:0], 0
	case i == w.head && w.words[i] == 0:
		for w.words[w.head] == 0 {
			w.head++
		}
		if w.head > 32 && w.head*2 >= len(w.words) {
			// Compact the drained prefix so the bitmap stays proportional
			// to the span of the ids in flight.
			w.words = w.words[:copy(w.words, w.words[w.head:])]
			w.lo += uint64(w.head)
			w.head = 0
		}
	}
	return true
}
