// Package spidergon implements the baseline the paper compares against: the
// STMicroelectronics Spidergon NoC (paper §2.1, ref [5]) with a one-port
// router, a single shared cross link, deterministic across-first routing,
// two dateline virtual channels per physical link, and broadcast by
// consecutive unicast chains.
//
// Port layout of the 4x4 switch (paper Fig 3(a)):
//
//	inputs  0 RimCWIn   flits flowing clockwise, from node i-1
//	        1 RimCCWIn  flits flowing counter-clockwise, from node i+1
//	        2 CrossIn   cross-link arrivals
//	        3 Inj       the single local injection channel
//	outputs 0 RimCWOut  to node i+1
//	        1 RimCCWOut to node i-1
//	        2 CrossOut  to the antipode
//	        3 Eject     the single local ejection channel (shared, arbitrated)
//
// The structural differences from the Quarc switch are exactly the paper's
// points (i)-(iii): one cross channel instead of two, one injection queue
// (head-of-line blocking at the source), one arbitrated ejection port, and
// no absorb-and-forward cloning, so a broadcast is a chain of store-and-
// forward unicasts whose headers the receiving switch must rewrite.
package spidergon

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/topology"
)

// Input port indices.
const (
	RimCWIn = iota
	RimCCWIn
	CrossIn
	Inj
)

// Output port indices.
const (
	RimCWOut = iota
	RimCCWOut
	CrossOut
	Eject
	numOutputs
)

// NumNetworkInputs is the index of the first injection port.
const NumNetworkInputs = 3

const link2VCs = 2

// Route implements deterministic across-first routing (§2.1): the cross
// link is used only as the first hop; rim arrivals either eject or continue
// in their direction; cross arrivals choose the shorter remaining rim arc.
func Route(n int) router.RouteFunc {
	return func(node, in int, h router.Header, _ int) router.Decision {
		if int(h.Dst) == node {
			return router.Decision{Out: Eject, Eject: true}
		}
		switch in {
		case RimCWIn:
			return router.Decision{Out: RimCWOut}
		case RimCCWIn:
			return router.Decision{Out: RimCCWOut}
		case CrossIn:
			if topology.Offset(n, node, int(h.Dst)) <= n/2 {
				return router.Decision{Out: RimCWOut}
			}
			return router.Decision{Out: RimCCWOut}
		case Inj:
			switch topology.SpidergonRoute(n, node, int(h.Dst)) {
			case topology.SpiCW:
				return router.Decision{Out: RimCWOut}
			case topology.SpiCCW:
				return router.Decision{Out: RimCCWOut}
			default:
				return router.Decision{Out: CrossOut}
			}
		}
		panic(fmt.Sprintf("spidergon: no such input port %d", in))
	}
}

// VCNext applies the dateline discipline on the rim rings and VC 0 on every
// other output (the cross links; the ejection port allocates adaptively
// inside the router). It is the one dateline rule of the ring family: the
// Quarc and the ring number their rim outputs 0 and 1 as the Spidergon does,
// and use it as is.
func VCNext(n int) router.VCFunc {
	return func(node, out, in, cur int) int {
		switch out {
		case RimCWOut:
			return topology.RimVC(n, topology.CW, node, cur)
		case RimCCWOut:
			return topology.RimVC(n, topology.CCW, node, cur)
		default:
			return 0
		}
	}
}

// Reach is the minimal crossbar for across-first routing.
func Reach() [][]int {
	return [][]int{
		RimCWOut:  {RimCWIn, CrossIn, Inj},
		RimCCWOut: {RimCCWIn, CrossIn, Inj},
		CrossOut:  {Inj},
		Eject:     {RimCWIn, RimCCWIn, CrossIn},
	}
}

// Config describes a Spidergon network build.
type Config struct {
	N     int
	Depth int
}

// Build assembles an n-node Spidergon network and its adapters.
func Build(cfg Config) (*network.Fabric, []*Adapter, error) {
	if err := topology.ValidateRingSize(cfg.N); err != nil {
		return nil, nil, err
	}
	n := cfg.N
	sw := router.Config{
		VCs:       link2VCs,
		Depth:     cfg.Depth,
		InLanes:   []int{link2VCs, link2VCs, link2VCs, 1},
		NOut:      numOutputs,
		EjectPort: Eject,
		Route:     Route(n),
		VCNext:    VCNext(n),
		Reach:     Reach(),
	}
	wires := func(node int) []network.OutputWire {
		return []network.OutputWire{
			RimCWOut:  {Dst: network.PortRef{Node: topology.NextCW(n, node), Port: RimCWIn}},
			RimCCWOut: {Dst: network.PortRef{Node: topology.NextCCW(n, node), Port: RimCCWIn}},
			CrossOut:  {Dst: network.PortRef{Node: topology.Antipode(n, node), Port: CrossIn}},
			Eject:     {Sink: true},
		}
	}
	return network.Build(n, sw, NumNetworkInputs, wires, func(node int, r *router.Router) *Adapter {
		return &Adapter{network.BaseAdapter{Node: node, N: n, R: r,
			Queues: make([]network.PacketQueue, 1), Inject: inject, OnTail: ForwardChain}}
	})
}

// inject is the one-port injection rule: every packet, switch-generated chain
// packets included, enters the single source queue and injection channel.
func inject(int) (int, int) { return 0, Inj }

// Adapter is the one-port Spidergon network interface: the shared adapter
// with the one-port injection rule, software multicast, and broadcast by
// unicast chains, whose retransmission is the switch's job (§2.2: "The NoC
// switches must contain the logic to create the required packets on receipt
// of a broadcast-by-unicast packet").
type Adapter struct {
	network.BaseAdapter
}

// SendBroadcast queues the two broadcast-by-unicast chains.
func (a *Adapter) SendBroadcast(msgLen int, now int64) uint64 {
	return Broadcast(&a.BaseAdapter, msgLen, now)
}

// Broadcast sends a broadcast from a's node as the two broadcast-by-unicast
// chains (§2.1): a clockwise chain over the next ceil((n-1)/2) nodes and a
// counter-clockwise chain over the rest. Each chain packet is addressed to the
// chain's next node and counts the nodes left after it; each receiving switch
// delivers it locally, rewrites the header for the next node and retransmits
// after the tail arrives (ForwardChain) — the store-and-forward that costs the
// Spidergon its broadcast performance. The packets enter through a's own
// injection rule, so the Quarc's chain-broadcast ablation runs this code too.
func Broadcast(a *network.BaseAdapter, msgLen int, now int64) uint64 {
	msgID := a.NewMessage(network.ClassBroadcast, a.N-1, now)
	cw := a.N / 2 // ceil((n-1)/2)
	h := chainPacket(a, topology.NextCW(a.N, a.Node), cw-1, false, msgID, now)
	a.Enqueue(&h, msgLen)
	if ccw := a.N - 1 - cw; ccw > 0 {
		h = chainPacket(a, topology.NextCCW(a.N, a.Node), ccw-1, true, msgID, now)
		a.Enqueue(&h, msgLen)
	}
	return msgID
}

// ForwardChain is the switch's half of the chain broadcast, an adapter's
// OnTail hook: a chain packet with nodes left is retransmitted to the next
// node, ahead of waiting PE traffic, under the delivered header rewritten for
// that node.
func ForwardChain(a *network.BaseAdapter, h router.Header) {
	if h.Traffic != flit.BcastChain || h.Remain == 0 {
		return
	}
	next := topology.NextCW(a.N, a.Node)
	if h.ChainCCW {
		next = topology.NextCCW(a.N, a.Node)
	}
	h.Src, h.Dst, h.Remain = int32(a.Node), int32(next), h.Remain-1
	a.EnqueueFront(&h, int(h.PktLen))
}

// chainPacket is the header of a chain packet from a's node to dst with
// remain nodes left after dst.
func chainPacket(a *network.BaseAdapter, dst, remain int, ccw bool, msgID uint64, gen int64) router.Header {
	return router.Header{Traffic: flit.BcastChain, Src: int32(a.Node), Dst: int32(dst),
		Remain: int32(remain), ChainCCW: ccw, MsgID: msgID, Gen: gen}
}
