package network

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// PacketQueue is an unbounded source queue of packets waiting at a network
// adapter, streaming the front packet flit by flit. The open-loop traffic
// model of the paper's evaluation queues messages here while the injection
// channel is busy; the queue population is the saturation signal.
//
// A queued packet is one 20-byte entry, not its flits: its header record
// lives in the fabric's packet table, and the paper's transceiver forms
// flits as it injects them (§2.4). The front entry's slot is the packet's
// current flit, rewritten in place by Advance into the slot of its next flit,
// in the order and with the kinds flit.AppendPacket lays a packet out in.
// Dequeueing advances a head index and the backing array is compacted as it
// drains, so a steady-state simulation injects messages without allocating.
// A running flit counter makes FlitBacklog O(1): the saturation sampler
// polls it for every node, and the activity scheduler for every stepped node
// every cycle.
type PacketQueue struct {
	pkts    []queuedPacket
	head    int // index of the front packet in pkts
	backlog int // flits still to inject, maintained incrementally
}

// queuedPacket is one queued packet: the slot of the next flit it will inject
// (its header until it starts streaming), its length and the router input
// port it injects through.
type queuedPacket struct {
	s            router.Slot
	length, port int32
}

// PushBack appends a packet of length flits whose header slot is h (as
// router.Packets.Add returns it), to be injected through router input port.
//
//quarc:hotpath
func (q *PacketQueue) PushBack(h router.Slot, length, port int) {
	if length < 2 {
		panic("network: packet too short")
	}
	q.pkts = append(q.pkts, queuedPacket{h, int32(length), int32(port)})
	q.backlog += length
}

// PushFront inserts a packet to be sent next. If the front packet has
// already started streaming it is not disturbed: the new packet goes second
// (a switch cannot recall flits already committed to the channel).
//
//quarc:hotpath
func (q *PacketQueue) PushFront(h router.Slot, length, port int) {
	if length < 2 {
		panic("network: packet too short")
	}
	q.backlog += length
	p := queuedPacket{h, int32(length), int32(port)}
	streaming := q.head < len(q.pkts) && q.pkts[q.head].s.Seq > 0
	if !streaming && q.head > 0 {
		// The drained prefix has a free slot just before the front packet:
		// insert in O(1) instead of shifting the live region.
		q.head--
		q.pkts[q.head] = p
		return
	}
	at := q.head
	if streaming {
		at++
	}
	q.pkts = append(q.pkts, queuedPacket{})
	copy(q.pkts[at+1:], q.pkts[at:])
	q.pkts[at] = p
}

// NextFlit returns the slot of the next flit to inject and the router input
// port it goes through, or nil when the queue is empty. The slot lies in the
// queue: the pointer is valid until the queue is next modified.
//
//quarc:hotpath
func (q *PacketQueue) NextFlit() (*router.Slot, int) {
	if q.head == len(q.pkts) {
		return nil, 0
	}
	p := &q.pkts[q.head]
	return &p.s, int(p.port)
}

// Advance consumes the peeked flit: the front packet's slot becomes its next
// flit's, or the packet leaves the queue after its tail.
//
//quarc:hotpath
func (q *PacketQueue) Advance() {
	if q.head == len(q.pkts) {
		panic("network: Advance on empty queue")
	}
	q.backlog--
	p := &q.pkts[q.head]
	if seq := p.s.Seq + 1; seq < p.length {
		p.s.Kind = flit.Body
		if seq == p.length-1 {
			p.s.Kind = flit.Tail
		}
		p.s.Seq = seq
		return
	}
	q.head++
	switch {
	case q.head == len(q.pkts):
		q.pkts = q.pkts[:0]
		q.head = 0
	case q.head > 32 && q.head*2 >= len(q.pkts):
		// Compact the drained prefix so a saturated queue's backing
		// array stays proportional to its live population.
		q.pkts = q.pkts[:copy(q.pkts, q.pkts[q.head:])]
		q.head = 0
	}
}

// Packets returns the queued packet count.
func (q *PacketQueue) Packets() int { return len(q.pkts) - q.head }

// FlitBacklog returns the number of flits still to inject, in O(1).
func (q *PacketQueue) FlitBacklog() int { return q.backlog }

// Assembler reassembles packets delivered flit by flit (the receive side of
// the transceiver). Packets from different sources interleave freely; each
// is tracked by packet id.
//
// In-progress packets live in a small reused slice rather than a map: the
// population is bounded by the handful of streams a switch can interleave
// into one PE, so a linear scan beats hashing, and completing a packet does
// not churn map buckets — the receive path allocates nothing in steady
// state.
type Assembler struct {
	partial []partialPkt
}

type partialPkt struct {
	pkt uint64
	got int
}

// Add consumes flit s of the packet whose header record is *h and reports
// whether it completed the packet (i.e. it was the tail and all earlier
// flits had arrived). It only reads *h.
//
//quarc:hotpath
func (a *Assembler) Add(h *router.Header, s router.Slot) bool {
	at := -1
	got := 0
	for i := range a.partial {
		if a.partial[i].pkt == h.PktID {
			at, got = i, a.partial[i].got
			break
		}
	}
	if int(s.Seq) != got {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("network: out-of-order delivery: pkt %d flit %d after %d flits",
			h.PktID, s.Seq, got))
	}
	if s.Kind == flit.Tail {
		if int32(got+1) != h.PktLen {
			//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
			panic(fmt.Sprintf("network: tail of pkt %d after %d of its %d flits", h.PktID, got+1, h.PktLen))
		}
		if at >= 0 {
			// Order is irrelevant (lookup is by packet id): swap-remove so
			// the slot is reused without shifting.
			last := len(a.partial) - 1
			a.partial[at] = a.partial[last]
			a.partial = a.partial[:last]
		}
		return true
	}
	if at >= 0 {
		a.partial[at].got = got + 1
	} else {
		a.partial = append(a.partial, partialPkt{pkt: h.PktID, got: 1})
	}
	return false
}

// BaseAdapter is the network interface every model uses (the paper's
// transceiver, §2.4): source queues whose packets each name the router input
// port they inject through, one-flit-per-cycle feeding, receive reassembly
// that reports each completed packet to the fabric's tracker, and the send
// side of every message class. What differs between architectures is its two
// parameters. The injection rule picks the source queue and injection port a
// packet enters through: one queue and one port on a one-port router, a queue
// and port per destination quadrant on the Quarc's all-port router. And the
// collectives are software here — a broadcast is n-1 unicasts, a multicast one
// unicast per distinct remote target — so a model with hardware collectives
// embeds BaseAdapter and overrides SendBroadcast and SendMulticast.
type BaseAdapter struct {
	Node   int
	N      int // network size in nodes
	R      *router.Router
	Fab    *Fabric // set by Fabric.SetAdapter
	Queues []PacketQueue
	// Inject is the injection rule: the source queue and router input port
	// of a packet addressed to dst.
	Inject func(dst int) (queue, port int)
	// OnTail, when set, runs after a completed packet has been reported to
	// the tracker, with the packet's header record: the hook through which a
	// switch acts on a delivery (the Spidergon's chain retransmission).
	OnTail func(a *BaseAdapter, h router.Header)

	asm Assembler
}

// base makes a BaseAdapter, and any type embedding one, an Adapter.
func (b *BaseAdapter) base() *BaseAdapter { return b }

// Enqueue queues a new packet of length flits headed by *h: it stamps the
// next packet id into h.PktID, records the header in the fabric's packet
// table, enters the source queue and injection port the injection rule gives
// h.Dst, and wakes the node — a sleeping router would otherwise never notice
// the packet.
//
//quarc:hotpath
func (b *BaseAdapter) Enqueue(h *router.Header, length int) {
	h.PktID = b.Fab.NextPktID()
	qi, port := b.Inject(int(h.Dst))
	b.Queues[qi].PushBack(b.Fab.Packets.Add(h, length), length, port)
	b.Fab.wake(b.Node)
}

// EnqueueFront is Enqueue at the head of the queue: switch-generated
// packets (chain retransmissions) bypass waiting PE traffic.
//
//quarc:hotpath
func (b *BaseAdapter) EnqueueFront(h *router.Header, length int) {
	h.PktID = b.Fab.NextPktID()
	qi, port := b.Inject(int(h.Dst))
	b.Queues[qi].PushFront(b.Fab.Packets.Add(h, length), length, port)
	b.Fab.wake(b.Node)
}

// NewMessage takes the next message id and registers it with the tracker as
// a message of class c sent now from this node, complete after expected
// deliveries.
func (b *BaseAdapter) NewMessage(c MessageClass, expected int, now int64) uint64 {
	msgID := b.Fab.NextMsgID()
	b.Fab.Tracker.Register(msgID, c, b.Node, now, expected)
	return msgID
}

// unicast enqueues one unicast packet of message msgID for dst.
func (b *BaseAdapter) unicast(dst, msgLen int, msgID uint64, now int64) {
	b.Enqueue(&router.Header{Traffic: flit.Unicast, Src: int32(b.Node), Dst: int32(dst), MsgID: msgID, Gen: now}, msgLen)
}

// SendUnicast queues a unicast message of msgLen flits for dst.
func (b *BaseAdapter) SendUnicast(dst, msgLen int, now int64) uint64 {
	if dst == b.Node {
		panic("network: unicast to self")
	}
	msgID := b.NewMessage(ClassUnicast, 1, now)
	b.unicast(dst, msgLen, msgID, now)
	return msgID
}

// SendBroadcast emits n-1 unicasts (software broadcast).
func (b *BaseAdapter) SendBroadcast(msgLen int, now int64) uint64 {
	msgID := b.NewMessage(ClassBroadcast, b.N-1, now)
	for d := 0; d < b.N; d++ {
		if d != b.Node {
			b.unicast(d, msgLen, msgID, now)
		}
	}
	return msgID
}

// SendMulticast emulates the collective in software: the message registers
// as ClassMulticast with one expected delivery per distinct remote target,
// and one independent unicast per target is queued. Duplicate targets and
// self are ignored, as the Quarc's hardware multicast ignores them.
func (b *BaseAdapter) SendMulticast(targets []int, msgLen int, now int64) uint64 {
	expected := CountRemoteTargets(targets, b.Node)
	if expected == 0 {
		panic("network: multicast with no remote targets")
	}
	msgID := b.NewMessage(ClassMulticast, expected, now)
	var seen uint64
	for i, d := range targets {
		if distinctRemote(targets, i, b.Node, &seen) {
			b.unicast(d, msgLen, msgID, now)
		}
	}
	return msgID
}

// Feed pushes at most one flit per source queue into the router.
//
//quarc:hotpath
func (b *BaseAdapter) Feed(now int64) {
	for qi := range b.Queues {
		q := &b.Queues[qi]
		s, port := q.NextFlit()
		if s == nil {
			continue
		}
		if b.R.Push(port, 0, s) {
			q.Advance()
		}
	}
}

// FeedBlocked reports whether Feed cannot inject a single flit right now:
// every source queue with a pending flit faces a full injection lane, which
// an adapter with no pending flit trivially satisfies. The fabric consults it
// before putting a node to sleep: a node whose Feed could still make progress
// must keep stepping.
func (b *BaseAdapter) FeedBlocked() bool {
	for qi := range b.Queues {
		f, port := b.Queues[qi].NextFlit()
		if f == nil {
			continue
		}
		if b.R.LaneFree(port, 0) > 0 {
			return false
		}
	}
	return true
}

// Receive reassembles delivered flits; a completed packet is reported to the
// tracker, then its header record is handed to OnTail by value (once per
// packet, so the hook may keep it).
//
//quarc:hotpath
func (b *BaseAdapter) Receive(h *router.Header, s router.Slot, now int64) {
	if b.asm.Add(h, s) {
		// The tracker's OnDone may enqueue, which may move the table h
		// points into: read the record out first.
		tail := *h
		b.Fab.Tracker.Delivered(&tail, b.Node, now)
		if b.OnTail != nil {
			b.OnTail(b, tail)
		}
	}
}

// Backlog returns the total flits waiting in this adapter's source queues;
// the experiment layer samples it to detect saturation and the fabric polls
// it before sleeping the node, so it stays O(number of queues).
func (b *BaseAdapter) Backlog() int {
	total := 0
	for i := range b.Queues {
		total += b.Queues[i].FlitBacklog()
	}
	return total
}

// distinctRemote reports whether targets[i] is a remote target (not self)
// that does not already occur in targets[:i]. Nodes below 64 deduplicate
// through the caller's seen bitmask; higher ids (large meshes) fall back to a
// linear rescan of the prefix, which stays cheap at realistic multicast
// widths and allocates nothing.
func distinctRemote(targets []int, i, self int, seen *uint64) bool {
	d := targets[i]
	if d == self {
		return false
	}
	if uint(d) < 64 {
		bit := uint64(1) << uint(d)
		dup := *seen&bit != 0
		*seen |= bit
		return !dup
	}
	for _, e := range targets[:i] {
		if e == d {
			return false
		}
	}
	return true
}

// CountRemoteTargets returns the number of distinct targets excluding self —
// the expected delivery count of a multicast.
func CountRemoteTargets(targets []int, self int) int {
	var seen uint64
	count := 0
	for i := range targets {
		if distinctRemote(targets, i, self, &seen) {
			count++
		}
	}
	return count
}
