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
	numInputs
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
	return func(node, in int, f flit.Flit) router.Decision {
		if f.Dst == node {
			return router.Decision{Out: Eject, Eject: true}
		}
		switch in {
		case RimCWIn:
			return router.Decision{Out: RimCWOut}
		case RimCCWIn:
			return router.Decision{Out: RimCCWOut}
		case CrossIn:
			if topology.Offset(n, node, f.Dst) <= n/2 {
				return router.Decision{Out: RimCWOut}
			}
			return router.Decision{Out: RimCCWOut}
		case Inj:
			switch topology.SpidergonRoute(n, node, f.Dst) {
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

// VCNext applies the dateline discipline on the rim rings and VC 0 on the
// cross link; the ejection port allocates adaptively inside the router.
func VCNext(n int) router.VCFunc {
	return func(node, out, in, cur int, f flit.Flit) int {
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
	if cfg.Depth < 1 {
		return nil, nil, fmt.Errorf("spidergon: buffer depth %d", cfg.Depth)
	}
	n := cfg.N
	routers := make([]*router.Router, n)
	wires := make([][]network.OutputWire, n)
	injStart := make([]int, n)
	inLanes := []int{link2VCs, link2VCs, link2VCs, 1}
	for node := 0; node < n; node++ {
		routers[node] = router.New(router.Config{
			Node:      node,
			VCs:       link2VCs,
			Depth:     cfg.Depth,
			InLanes:   inLanes,
			NOut:      numOutputs,
			EjectPort: Eject,
			Route:     Route(n),
			VCNext:    VCNext(n),
			Reach:     Reach(),
		})
		wires[node] = []network.OutputWire{
			RimCWOut:  {Dst: network.PortRef{Node: topology.NextCW(n, node), Port: RimCWIn}},
			RimCCWOut: {Dst: network.PortRef{Node: topology.NextCCW(n, node), Port: RimCCWIn}},
			CrossOut:  {Dst: network.PortRef{Node: topology.Antipode(n, node), Port: CrossIn}},
			Eject:     {Sink: true},
		}
		injStart[node] = NumNetworkInputs
	}
	fab := network.New(routers, wires, injStart)
	as := make([]*Adapter, n)
	for node := 0; node < n; node++ {
		as[node] = newAdapter(fab, routers[node], node, n)
		fab.SetAdapter(node, as[node])
	}
	return fab, as, nil
}

// Adapter is the one-port Spidergon network interface: the shared one-port
// adapter (single source queue, single injection channel, software
// multicast) plus the packet-creation logic for broadcast-by-unicast chains
// (§2.2: "The NoC switches must contain the logic to create the required
// packets on receipt of a broadcast-by-unicast packet").
type Adapter struct {
	network.OnePortAdapter
}

func newAdapter(fab *network.Fabric, r *router.Router, node, n int) *Adapter {
	a := new(Adapter)
	a.Init(fab, r, node, n, Inj)
	a.OnTail = a.onTail
	return a
}

// SendBroadcast queues the two broadcast-by-unicast chains. Each receiving
// node's switch delivers the packet locally, rewrites the header for the
// next node and retransmits after the tail arrives (store-and-forward),
// which is what costs the Spidergon its broadcast performance.
func (a *Adapter) SendBroadcast(msgLen int, now int64) uint64 {
	msgID := a.Fab.NextMsgID()
	a.Fab.Tracker.Register(msgID, network.ClassBroadcast, a.Node, now, a.N-1)
	for _, c := range topology.SpidergonBroadcastChains(a.N, a.Node) {
		h := flit.Flit{
			Traffic: flit.BcastChain, Src: a.Node, Dst: c.Nodes[0],
			Remain: len(c.Nodes) - 1, ChainCCW: c.Dir == topology.CCW,
			PktID: a.Fab.NextPktID(), MsgID: msgID, Gen: now,
		}
		a.Enqueue(0, a.InjPort, h, msgLen)
	}
	return msgID
}

func (a *Adapter) onTail(f flit.Flit, now int64) {
	a.Fab.Tracker.Delivered(f.MsgID, a.Node, now)
	if f.Traffic == flit.BcastChain && f.Remain > 0 {
		var next int
		if f.ChainCCW {
			next = topology.NextCCW(a.N, a.Node)
		} else {
			next = topology.NextCW(a.N, a.Node)
		}
		h := flit.Flit{
			Traffic: flit.BcastChain, Src: a.Node, Dst: next,
			Remain: f.Remain - 1, ChainCCW: f.ChainCCW,
			PktID: a.Fab.NextPktID(), MsgID: f.MsgID, Gen: f.Gen,
		}
		// The switch-created packet takes precedence over PE traffic on the
		// single injection channel.
		a.EnqueueFront(0, a.InjPort, h, f.PktLen)
	}
}

var _ network.Adapter = (*Adapter)(nil)
