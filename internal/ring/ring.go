// Package ring implements a plain bidirectional ring NoC on the shared
// switch microarchitecture: no cross links, shortest-direction deterministic
// routing on the two rim rings, and the dateline virtual-channel discipline
// of internal/topology. It is the degenerate member of the Spidergon family
// (a Spidergon with the cross channel removed) and exists both as a lower
// bound in architecture sweeps and as the registry's proof of extensibility:
// it registers itself with internal/model and inherits the experiment
// harness, the service API and the shared invariant test suite without any
// of those layers naming it.
//
// Deadlock freedom follows from the channel dependency graph: each rim ring
// is a cycle broken by the dateline VC split, exactly as for the rim
// channels of the Quarc and Spidergon. The registry-wide deadlock proof in
// internal/analytic checks it over the routes this package's Route and the
// shared VCNext actually take.
//
// Port layout:
//
//	inputs  0 RimCWIn   flits flowing clockwise, from node i-1
//	        1 RimCCWIn  flits flowing counter-clockwise, from node i+1
//	        2 Inj       the single local injection channel
//	outputs 0 RimCWOut  to node i+1
//	        1 RimCCWOut to node i-1
//	        2 Eject     the single local ejection channel (shared, arbitrated)
package ring

import (
	"fmt"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/spidergon"
	"quarc/internal/topology"
)

// Input port indices.
const (
	RimCWIn = iota
	RimCCWIn
	Inj
)

// Output port indices.
const (
	RimCWOut = iota
	RimCCWOut
	Eject
	numOutputs
)

// NumNetworkInputs is the index of the first injection port.
const NumNetworkInputs = 2

const link2VCs = 2

// dirTo returns the shortest rim direction from src to dst; the clockwise
// direction wins exact antipodal ties, keeping the route a pure function of
// (n, src, dst).
func dirTo(n, src, dst int) topology.Direction {
	if topology.Offset(n, src, dst) <= n/2 {
		return topology.CW
	}
	return topology.CCW
}

// Route is shortest-direction deterministic routing: the injection decision
// fixes the rim ring, and the packet stays on it until it ejects.
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
		case Inj:
			if dirTo(n, node, int(h.Dst)) == topology.CW {
				return router.Decision{Out: RimCWOut}
			}
			return router.Decision{Out: RimCCWOut}
		}
		panic(fmt.Sprintf("ring: no such input port %d", in))
	}
}

// Reach is the minimal crossbar: packets never reverse direction on the rim.
func Reach() [][]int {
	return [][]int{
		RimCWOut:  {RimCWIn, Inj},
		RimCCWOut: {RimCCWIn, Inj},
		Eject:     {RimCWIn, RimCCWIn},
	}
}

// Config describes a ring network build.
type Config struct {
	N     int
	Depth int
}

// Build assembles an n-node bidirectional ring and its adapters.
func Build(cfg Config) (*network.Fabric, []*network.BaseAdapter, error) {
	if err := topology.ValidateRingSize(cfg.N); err != nil {
		return nil, nil, err
	}
	n := cfg.N
	sw := router.Config{
		VCs:       link2VCs,
		Depth:     cfg.Depth,
		InLanes:   []int{link2VCs, link2VCs, 1},
		NOut:      numOutputs,
		EjectPort: Eject,
		Route:     Route(n),
		VCNext:    spidergon.VCNext(n),
		Reach:     Reach(),
	}
	wires := func(node int) []network.OutputWire {
		return []network.OutputWire{
			RimCWOut:  {Dst: network.PortRef{Node: topology.NextCW(n, node), Port: RimCWIn}},
			RimCCWOut: {Dst: network.PortRef{Node: topology.NextCCW(n, node), Port: RimCCWIn}},
			Eject:     {Sink: true},
		}
	}
	return network.Build(n, sw, NumNetworkInputs, wires, func(node int, r *router.Router) *network.BaseAdapter {
		return &network.BaseAdapter{Node: node, N: n, R: r,
			Queues: make([]network.PacketQueue, 1), Inject: inject}
	})
}

// inject is the one-port injection rule. The ring has no hardware collective
// support, so a broadcast is the adapter's n-1 independent unicasts.
func inject(int) (int, int) { return 0, Inj }

func init() {
	model.Register(model.Model{
		Name:        "ring",
		Description: "bidirectional ring: shortest-direction routing, dateline VCs, no cross links (lower bound)",
		CheckN:      topology.ValidateRingSize,
		ExampleN:    16,
		Build: func(bc model.BuildConfig) (*network.Fabric, []model.Node, error) {
			return model.Nodes(Build(Config{N: bc.N, Depth: bc.Depth}))
		},
	})
}
