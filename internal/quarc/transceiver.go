package quarc

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/topology"
)

// Transceiver is the Quarc network adapter (paper §2.4, Fig 5). On the send
// side it divides messages into flits, tags flit types, computes the
// destination quadrant and stores the packet into the per-quadrant buffer
// whose FCU feeds the matching all-port router ingress; effectively the PE
// "makes the routing decision by queueing the address" (§3.1). On the
// receive side it reassembles delivered flits and reports message
// completions to the fabric tracker.
type Transceiver struct {
	network.BaseAdapter
	n   int
	fab *network.Fabric
	cfg Config

	// Single-queue ablation state: one queue, the front packet streams to
	// the injection port of its quadrant.
	single PacketPortQueue
}

// PacketPortQueue is a single source queue whose packets each carry the
// injection port they must use; it reintroduces head-of-line blocking for
// the one-port ablation. Like network.PacketQueue it keeps a running flit
// counter so the backlog probe is O(1).
type PacketPortQueue struct {
	items   []portPkt
	pos     int // next flit of the front packet
	pending int // flits still to inject
	free    [][]flit.Flit
}

type portPkt struct {
	pkt  []flit.Flit
	port int
}

// newPacket assembles a packet, reusing storage from a previously streamed
// one when available (same recycling discipline as network.PacketQueue).
func (p *PacketPortQueue) newPacket(h flit.Flit, length int) []flit.Flit {
	if n := len(p.free); n > 0 {
		buf := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return flit.AppendPacket(buf[:0], h, length)
	}
	return flit.Packet(h, length)
}

func (p *PacketPortQueue) push(pkt []flit.Flit, port int) {
	p.items = append(p.items, portPkt{pkt, port})
	p.pending += len(pkt)
}

// pushFront inserts a packet to be sent next, without disturbing a front
// packet that has already started streaming.
func (p *PacketPortQueue) pushFront(pkt []flit.Flit, port int) {
	at := 0
	if p.pos > 0 && len(p.items) > 0 {
		at = 1
	}
	p.items = append(p.items, portPkt{})
	copy(p.items[at+1:], p.items[at:])
	p.items[at] = portPkt{pkt, port}
	p.pending += len(pkt)
}

// next returns the next flit to inject, in place in its packet, and its
// injection port; nil when the queue is empty.
func (p *PacketPortQueue) next() (*flit.Flit, int) {
	if len(p.items) == 0 {
		return nil, 0
	}
	return &p.items[0].pkt[p.pos], p.items[0].port
}

func (p *PacketPortQueue) advance() {
	p.pos++
	p.pending--
	if p.pos == len(p.items[0].pkt) {
		if len(p.free) < network.MaxFreePackets {
			p.free = append(p.free, p.items[0].pkt)
		}
		p.items[0] = portPkt{}
		p.items = p.items[1:]
		p.pos = 0
	}
}

func (p *PacketPortQueue) backlog() int { return p.pending }

func newTransceiver(fab *network.Fabric, r *router.Router, node int, cfg Config) *Transceiver {
	t := &Transceiver{n: cfg.N, fab: fab, cfg: cfg}
	t.Node = node
	t.R = r
	t.Queues = make([]network.PacketQueue, topology.NumQuadrants)
	t.InjPorts = []int{
		topology.QRight:    InjRight,
		topology.QLeft:     InjLeft,
		topology.QCrossCW:  InjCrossCW,
		topology.QCrossCCW: InjCrossCCW,
	}
	t.OnTail = func(f flit.Flit, now int64) {
		t.onTail(f, now)
	}
	return t
}

// Feed honours the single-queue ablation; otherwise the embedded
// four-queue feeding applies.
func (t *Transceiver) Feed(now int64) {
	if !t.cfg.SingleQueue {
		t.BaseAdapter.Feed(now)
		return
	}
	f, port := t.single.next()
	if f == nil {
		return
	}
	if t.R.Push(port, 0, f) {
		t.single.advance()
	}
}

// FeedBlocked mirrors Feed's single-queue discipline: in the ablation the
// front packet's injection lane being full blocks the whole queue
// (head-of-line), so one probe decides.
func (t *Transceiver) FeedBlocked() bool {
	if !t.cfg.SingleQueue {
		return t.BaseAdapter.FeedBlocked()
	}
	f, port := t.single.next()
	if f == nil {
		return true
	}
	return t.R.LaneFree(port, 0) == 0
}

// Backlog includes the ablation queue.
func (t *Transceiver) Backlog() int {
	if t.cfg.SingleQueue {
		return t.single.backlog()
	}
	return t.BaseAdapter.Backlog()
}

// enqueue assembles a packet of length flits headed by h in the quadrant's
// source queue, reusing that queue's recycled storage. Every enqueue wakes
// the node: a quiescent router must re-enter the fabric's step set to feed
// the new packet.
func (t *Transceiver) enqueue(h flit.Flit, length int, q topology.Quadrant) {
	if t.cfg.SingleQueue {
		t.single.push(t.single.newPacket(h, length), injPortFor(q))
		t.Wake()
		return
	}
	t.Enqueue(int(q), h, length)
}

func (t *Transceiver) enqueueFront(h flit.Flit, length int, q topology.Quadrant) {
	if t.cfg.SingleQueue {
		// Chain retransmissions bypass PE traffic even in the ablation.
		t.single.pushFront(t.single.newPacket(h, length), injPortFor(q))
		t.Wake()
		return
	}
	t.EnqueueFront(int(q), h, length)
}

// SendUnicast queues a unicast message of msgLen flits for dst.
func (t *Transceiver) SendUnicast(dst, msgLen int, now int64) uint64 {
	if dst == t.Node {
		panic("quarc: unicast to self")
	}
	msgID := t.fab.NextMsgID()
	h := flit.Flit{
		Traffic: flit.Unicast, Src: t.Node, Dst: dst,
		PktID: t.fab.NextPktID(), MsgID: msgID, Gen: now,
	}
	t.fab.Tracker.Register(msgID, network.ClassUnicast, t.Node, now, 1)
	t.enqueue(h, msgLen, topology.QuadrantOf(t.n, t.Node, dst))
	return msgID
}

// SendBroadcast queues a broadcast of msgLen flits per branch: four packets,
// one per quadrant, each addressed to the last node of its base-routing
// conformed path (paper §2.5.2 and Fig 6). With the ChainBroadcast ablation
// it instead emits Spidergon-style consecutive-unicast chains.
func (t *Transceiver) SendBroadcast(msgLen int, now int64) uint64 {
	msgID := t.fab.NextMsgID()
	t.fab.Tracker.Register(msgID, network.ClassBroadcast, t.Node, now, t.n-1)
	if t.cfg.ChainBroadcast {
		t.sendChains(msgID, msgLen, now)
		return msgID
	}
	for _, b := range topology.QuarcBroadcastBranches(t.n, t.Node) {
		h := flit.Flit{
			Traffic: flit.Broadcast, Src: t.Node, Dst: b.Last,
			PktID: t.fab.NextPktID(), MsgID: msgID, Gen: now,
		}
		t.enqueue(h, msgLen, b.Q)
	}
	return msgID
}

// SendMulticast queues a multicast to the given targets (self is ignored);
// only quadrants containing targets emit a branch packet, with the
// hop-indexed bitstring in the header (paper §2.5.3).
func (t *Transceiver) SendMulticast(targets []int, msgLen int, now int64) uint64 {
	brs := topology.QuarcMulticastBranches(t.n, t.Node, targets)
	if len(brs) == 0 {
		panic("quarc: multicast with no remote targets")
	}
	expected := network.CountRemoteTargets(targets, t.Node)
	msgID := t.fab.NextMsgID()
	t.fab.Tracker.Register(msgID, network.ClassMulticast, t.Node, now, expected)
	for _, b := range brs {
		h := flit.Flit{
			Traffic: flit.Multicast, Src: t.Node, Dst: b.Last, Bits: b.Bits,
			PktID: t.fab.NextPktID(), MsgID: msgID, Gen: now,
		}
		t.enqueue(h, msgLen, b.Q)
	}
	return msgID
}

// sendChains emits the broadcast-by-unicast chains (ablation iii / the
// Spidergon's only deadlock-free broadcast).
func (t *Transceiver) sendChains(msgID uint64, msgLen int, now int64) {
	for _, c := range topology.SpidergonBroadcastChains(t.n, t.Node) {
		first := c.Nodes[0]
		h := flit.Flit{
			Traffic: flit.BcastChain, Src: t.Node, Dst: first,
			Remain: len(c.Nodes) - 1, ChainCCW: c.Dir == topology.CCW,
			PktID: t.fab.NextPktID(), MsgID: msgID, Gen: now,
		}
		t.enqueue(h, msgLen, topology.QuadrantOf(t.n, t.Node, first))
	}
}

// onTail handles a completed packet delivery at this node.
func (t *Transceiver) onTail(f flit.Flit, now int64) {
	t.fab.Tracker.Delivered(f.MsgID, t.Node, now)
	if f.Traffic == flit.BcastChain && f.Remain > 0 {
		// Store-and-forward retransmission: rewrite the header for the next
		// node in the chain and inject with switch priority.
		var next int
		if f.ChainCCW {
			next = topology.NextCCW(t.n, t.Node)
		} else {
			next = topology.NextCW(t.n, t.Node)
		}
		h := flit.Flit{
			Traffic: flit.BcastChain, Src: t.Node, Dst: next,
			Remain: f.Remain - 1, ChainCCW: f.ChainCCW,
			PktID: t.fab.NextPktID(), MsgID: f.MsgID, Gen: f.Gen,
		}
		t.enqueueFront(h, f.PktLen, topology.QuadrantOf(t.n, t.Node, next))
	}
}

var _ network.Adapter = (*Transceiver)(nil)

func init() {
	// Compile-time-ish sanity: port tables must agree.
	if len(Reach()) != numOutputs {
		panic(fmt.Sprintf("quarc: reach table has %d outputs", len(Reach())))
	}
}
