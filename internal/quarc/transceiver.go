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
}

func newTransceiver(fab *network.Fabric, r *router.Router, node int, cfg Config) *Transceiver {
	t := &Transceiver{n: cfg.N, fab: fab, cfg: cfg}
	t.Node = node
	t.R = r
	t.Queues = make([]network.PacketQueue, topology.NumQuadrants)
	if cfg.SingleQueue {
		t.Queues = t.Queues[:1]
	}
	t.OnTail = func(f flit.Flit, now int64) {
		t.onTail(f, now)
	}
	return t
}

// queueFor is the source queue holding traffic for quadrant q: one per
// quadrant, each feeding its own all-port router ingress — or, in the
// single-queue ablation, one queue for all four, whose front packet blocks
// the others behind it whatever their injection port (head-of-line).
func (t *Transceiver) queueFor(q topology.Quadrant) int {
	if t.cfg.SingleQueue {
		return 0
	}
	return int(q)
}

// enqueue queues a packet of length flits headed by h for quadrant q. Every
// enqueue wakes the node: a quiescent router must re-enter the fabric's step
// set to feed the new packet.
func (t *Transceiver) enqueue(h flit.Flit, length int, q topology.Quadrant) {
	t.Enqueue(t.queueFor(q), injPortFor(q), h, length)
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
		q := topology.QuadrantOf(t.n, t.Node, next)
		t.EnqueueFront(t.queueFor(q), injPortFor(q), h, f.PktLen)
	}
}

var _ network.Adapter = (*Transceiver)(nil)

func init() {
	// Compile-time-ish sanity: port tables must agree.
	if len(Reach()) != numOutputs {
		panic(fmt.Sprintf("quarc: reach table has %d outputs", len(Reach())))
	}
}
