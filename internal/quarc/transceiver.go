package quarc

import (
	"fmt"
	"math/bits"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/spidergon"
	"quarc/internal/topology"
)

// Transceiver is the Quarc network adapter (paper §2.4, Fig 5): the shared
// adapter whose injection rule is the transceiver's quadrant calculator. A
// packet enters the per-quadrant buffer whose FCU feeds the matching
// all-port router ingress; effectively the PE "makes the routing decision by
// queueing the address" (§3.1). Broadcast and multicast are done in hardware
// (BRCP, §2.5), so the transceiver overrides those two sends.
type Transceiver struct {
	network.BaseAdapter
	chain bool // broadcast by the Spidergon's unicast chains (ablation of modification iii)
}

func newTransceiver(r *router.Router, node int, cfg Config) *Transceiver {
	n, single := cfg.N, cfg.SingleQueue
	t := &Transceiver{chain: cfg.ChainBroadcast}
	t.Node, t.N, t.R = node, n, r
	t.Queues = make([]network.PacketQueue, topology.NumQuadrants)
	if single {
		t.Queues = t.Queues[:1]
	}
	// One source queue per quadrant, each feeding its own all-port router
	// ingress — or, in the single-queue ablation, one queue for all four,
	// whose front packet blocks the others behind it whatever their
	// injection port (head-of-line).
	t.Inject = func(dst int) (int, int) {
		q := topology.QuadrantOf(n, node, dst)
		if single {
			return 0, injPortFor(q)
		}
		return int(q), injPortFor(q)
	}
	if cfg.ChainBroadcast {
		t.OnTail = spidergon.ForwardChain
	}
	return t
}

// branches lists the quadrants in the order the transceiver emits a BRCP
// collective's branch packets (and so allocates their packet ids).
var branches = [...]topology.Quadrant{topology.QRight, topology.QCrossCCW, topology.QCrossCW, topology.QLeft}

// branchNode returns the node a branch stream from src into quadrant q
// reaches at hop h. Every branch header's destination lies in its own
// quadrant, so the injection rule sends it through that quadrant's port.
func branchNode(n, src int, q topology.Quadrant, h int) int {
	o := n - h // QLeft
	switch q {
	case topology.QRight:
		o = h
	case topology.QCrossCCW:
		o = n/2 + 1 - h // the cross link, then counter-clockwise from the antipode
	case topology.QCrossCW:
		o = n/2 - 1 + h // the cross link, then clockwise past the antipode
	}
	return topology.Mod(src+o, n)
}

// SendBroadcast queues a broadcast of msgLen flits per branch: four packets,
// one per quadrant, each addressed to the last node of its base-routing
// conformed path, n/4 hops out (paper §2.5.2 and Fig 6). With the
// ChainBroadcast ablation it sends the Spidergon's broadcast-by-unicast
// chains instead.
func (t *Transceiver) SendBroadcast(msgLen int, now int64) uint64 {
	if t.chain {
		return spidergon.Broadcast(&t.BaseAdapter, msgLen, now)
	}
	msgID := t.NewMessage(network.ClassBroadcast, t.N-1, now)
	for _, q := range branches {
		t.Enqueue(&router.Header{Traffic: flit.Broadcast, Src: int32(t.Node),
			Dst: int32(branchNode(t.N, t.Node, q, t.N/4)), MsgID: msgID, Gen: now}, msgLen)
	}
	return msgID
}

// SendMulticast queues a multicast to the given targets (self and duplicates
// are ignored): only quadrants containing targets emit a branch packet,
// addressed to the quadrant's furthest target, with the hop-indexed
// bitstring in the header — bit i marks the node i+1 hops down the stream
// (paper §2.5.3).
func (t *Transceiver) SendMulticast(targets []int, msgLen int, now int64) uint64 {
	var hops [topology.NumQuadrants]uint64
	for _, d := range targets {
		if d = topology.Mod(d, t.N); d != t.Node {
			hops[topology.QuadrantOf(t.N, t.Node, d)] |= 1 << uint(topology.QuarcHops(t.N, t.Node, d)-1)
		}
	}
	if hops == [topology.NumQuadrants]uint64{} {
		panic("quarc: multicast with no remote targets")
	}
	msgID := t.NewMessage(network.ClassMulticast, network.CountRemoteTargets(targets, t.Node), now)
	for _, q := range branches {
		if b := hops[q]; b != 0 {
			t.Enqueue(&router.Header{Traffic: flit.Multicast, Src: int32(t.Node),
				Dst: int32(branchNode(t.N, t.Node, q, bits.Len64(b))), Bits: b, MsgID: msgID, Gen: now}, msgLen)
		}
	}
	return msgID
}

func init() {
	// Compile-time-ish sanity: port tables must agree.
	if len(Reach()) != numOutputs {
		panic(fmt.Sprintf("quarc: reach table has %d outputs", len(Reach())))
	}
}
