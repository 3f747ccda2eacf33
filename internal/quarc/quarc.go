// Package quarc implements the paper's primary contribution: the Quarc
// NoC switch and transceiver (network adapter).
//
// The Quarc improves on the Spidergon by (i) doubling the cross link so the
// cross-clockwise and cross-counter-clockwise quadrants have separate
// physical channels, (ii) replacing the one-port router with an all-port
// router fed by four per-quadrant injection queues in the transceiver, and
// (iii) letting routers absorb-and-forward flits simultaneously, which turns
// broadcast into a true wormhole broadcast along base-routing conformed
// paths (paper §2.2).
//
// Port layout of the switch (paper Fig 3(b), minimal deterministic-routing
// crossbar):
//
//	inputs  0 RimCWIn     flits flowing clockwise, from node i-1
//	        1 RimCCWIn    flits flowing counter-clockwise, from node i+1
//	        2 CrossCWIn   cross-link arrivals that continue clockwise
//	        3 CrossCCWIn  cross-link arrivals that continue counter-clockwise
//	        4 InjRight    transceiver queue for the right quadrant
//	        5 InjLeft     transceiver queue for the left quadrant
//	        6 InjCrossCW  transceiver queue for the cross-cw quadrant
//	        7 InjCrossCCW transceiver queue for the cross-ccw quadrant
//	outputs 0 RimCWOut    to node i+1
//	        1 RimCCWOut   to node i-1
//	        2 CrossCWOut  to the antipode's CrossCWIn
//	        3 CrossCCWOut to the antipode's CrossCCWIn
//
// Output 0 is reachable from inputs {0, 2, 4}, output 1 from {1, 3, 5}, and
// the cross outputs only from their injection queues ({6} and {7}): the
// paper's observation that "left, right and one of the cross input port may
// require to send flits in maximum two possible destinations" while "the
// remaining input ports only have one possible destination" is this
// reachability matrix plus the local eject paths from inputs 0, 1 and 3
// (input 2, the cross-cw arrival, never ejects — which is exactly why the
// broadcast covers every node exactly once).
package quarc

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/spidergon"
	"quarc/internal/topology"
)

// Input port indices.
const (
	RimCWIn = iota
	RimCCWIn
	CrossCWIn
	CrossCCWIn
	InjRight
	InjLeft
	InjCrossCW
	InjCrossCCW
)

// Output port indices.
const (
	RimCWOut = iota
	RimCCWOut
	CrossCWOut
	CrossCCWOut
	numOutputs
)

// NumNetworkInputs is the index of the first injection port.
const NumNetworkInputs = 4

// injPortFor maps a quadrant to its injection input port.
func injPortFor(q topology.Quadrant) int {
	switch q {
	case topology.QRight:
		return InjRight
	case topology.QLeft:
		return InjLeft
	case topology.QCrossCW:
		return InjCrossCW
	default:
		return InjCrossCCW
	}
}

// Route is the Quarc routing function. It is nearly trivial (paper §2.5.1:
// "there is no routing required by the switch"): a flit is either destined
// for the local port or forwarded in the same direction on the rim; the
// injected port fully determines the route.
func Route(n int) router.RouteFunc {
	return func(node, in int, h router.Header, hop int) router.Decision {
		switch in {
		case RimCWIn, RimCCWIn:
			out := RimCWOut
			if in == RimCCWIn {
				out = RimCCWOut
			}
			return rimDecision(node, out, h, hop)
		case CrossCWIn:
			// Minimal crossbar: no eject path. Unicast never terminates
			// here (offsets strictly beyond n/2) and broadcast streams skip
			// the antipode on this branch.
			if int(h.Dst) == node {
				panic(fmt.Sprintf("quarc: packet to %d arrived on the cross-cw input", node))
			}
			return router.Decision{Out: RimCWOut}
		case CrossCCWIn:
			return rimDecision(node, RimCCWOut, h, hop)
		case InjRight:
			return router.Decision{Out: RimCWOut}
		case InjLeft:
			return router.Decision{Out: RimCCWOut}
		case InjCrossCW:
			return router.Decision{Out: CrossCWOut}
		case InjCrossCCW:
			return router.Decision{Out: CrossCCWOut}
		}
		panic(fmt.Sprintf("quarc: no such input port %d", in))
	}
}

// rimDecision implements the absorb-and-forward ingress multiplexer for
// ports with an eject path.
func rimDecision(node, out int, h router.Header, hop int) router.Decision {
	if int(h.Dst) == node {
		// Last node of the stream: absorb, do not forward.
		return router.Decision{Out: router.NoOutput, Eject: true}
	}
	switch h.Traffic {
	case flit.Broadcast:
		// True broadcast: the ingress multiplexer clones the flit (§2.5.2).
		return router.Decision{Out: out, Eject: true, Clone: true}
	case flit.Multicast:
		// Bit 0 of the hop-aligned bitstring says whether this node is a
		// target (§2.5.3).
		if h.Bits>>hop&1 != 0 {
			return router.Decision{Out: out, Eject: true, Clone: true}
		}
		return router.Decision{Out: out}
	default:
		return router.Decision{Out: out}
	}
}

// Reach is the minimal crossbar reachability of the Quarc switch.
func Reach() [][]int {
	return [][]int{
		RimCWOut:    {RimCWIn, CrossCWIn, InjRight},
		RimCCWOut:   {RimCCWIn, CrossCCWIn, InjLeft},
		CrossCWOut:  {InjCrossCW},
		CrossCCWOut: {InjCrossCCW},
	}
}

// Config describes a Quarc network build.
type Config struct {
	N     int // nodes; multiple of 4 in [8, 64]
	Depth int // flits per VC lane buffer
	// ChainBroadcast disables the true broadcast and sends Spidergon-style
	// broadcast-by-unicast chains instead (ablation of modification iii).
	ChainBroadcast bool
	// SingleQueue funnels all traffic through one source queue feeding the
	// four ports, reintroducing the Spidergon's head-of-line blocking at the
	// source (ablation of modification ii).
	SingleQueue bool
}

// Build assembles an n-node Quarc network and its transceivers.
func Build(cfg Config) (*network.Fabric, []*Transceiver, error) {
	if err := topology.ValidateRingSize(cfg.N); err != nil {
		return nil, nil, err
	}
	n := cfg.N
	sw := router.Config{
		VCs:       link2VCs,
		Depth:     cfg.Depth,
		InLanes:   []int{link2VCs, link2VCs, link2VCs, link2VCs, 1, 1, 1, 1},
		NOut:      numOutputs,
		EjectPort: router.NoOutput, // all-port: dedicated per-input ejection
		Route:     Route(n),
		VCNext:    spidergon.VCNext(n), // dateline VCs on the rims, VC 0 on the acyclic cross channels
		Reach:     Reach(),
	}
	wires := func(node int) []network.OutputWire {
		return []network.OutputWire{
			RimCWOut:    {Dst: network.PortRef{Node: topology.NextCW(n, node), Port: RimCWIn}},
			RimCCWOut:   {Dst: network.PortRef{Node: topology.NextCCW(n, node), Port: RimCCWIn}},
			CrossCWOut:  {Dst: network.PortRef{Node: topology.Antipode(n, node), Port: CrossCWIn}},
			CrossCCWOut: {Dst: network.PortRef{Node: topology.Antipode(n, node), Port: CrossCCWIn}},
		}
	}
	return network.Build(n, sw, NumNetworkInputs, wires, func(node int, r *router.Router) *Transceiver {
		return newTransceiver(r, node, cfg)
	})
}

// link2VCs is the number of virtual channels per physical link (paper
// §2.3.1: the switch supports two virtual channels in parallel).
const link2VCs = 2
