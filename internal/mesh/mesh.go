// Package mesh implements 2D mesh and torus NoCs with dimension-order (XY)
// routing on the same switch microarchitecture as the ring networks.
//
// The paper uses the mesh in two ways: the flit-level simulator was
// "verified extensively against analytical models for the Spidergon and mesh
// topologies" (§3.2), and the conclusion names mesh/torus as the next
// comparison targets. This package supports both: the verification tests in
// internal/analytic and the extension experiment in the harness.
//
// Port layout: inputs 0-3 arrive from the East/West/North/South neighbours,
// input 4 is the single injection channel; outputs 0-3 lead to the
// neighbours, output 4 is the shared ejection port. Meshes have no hardware
// collective support, so a broadcast is n-1 independent unicasts from the
// source (the software baseline a cache-coherent MPSoC on a mesh would use).
package mesh

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/topology"
)

// Port indices. Inputs are "from direction"; outputs are "toward direction".
const (
	East = iota
	West
	North
	South
	Inj          // input 4
	Eject    = 4 // output 4
	numPorts = 5
)

// NumNetworkInputs is the index of the injection port.
const NumNetworkInputs = 4

const link2VCs = 2

func outFor(d topology.MeshDir) int {
	switch d {
	case topology.MEast:
		return East
	case topology.MWest:
		return West
	case topology.MNorth:
		return North
	case topology.MSouth:
		return South
	default:
		return Eject
	}
}

// Route computes XY routing decisions using the geometry in
// internal/topology.
func Route(m topology.Mesh) router.RouteFunc {
	return func(node, in int, f flit.Flit) router.Decision {
		if f.Dst == node {
			return router.Decision{Out: Eject, Eject: true}
		}
		d, _ := m.Step(node, f.Dst)
		return router.Decision{Out: outFor(d)}
	}
}

// VCNext: plain meshes are acyclic under XY routing and always use VC 0; a
// torus applies a per-dimension dateline, resetting to VC 0 when the packet
// turns from the X ring into the Y ring.
func VCNext(m topology.Mesh) router.VCFunc {
	return func(node, out, in, cur int, f flit.Flit) int {
		if !m.Torus {
			return 0
		}
		// Dimension change or injection: fresh VC.
		if in == Inj || dimOf(in) != dimOf(out) {
			cur = 0
		}
		if cur == 1 {
			return 1
		}
		x, y := m.XY(node)
		switch out {
		case East:
			if x == m.W-1 {
				return 1
			}
		case West:
			if x == 0 {
				return 1
			}
		case North:
			if y == m.H-1 {
				return 1
			}
		case South:
			if y == 0 {
				return 1
			}
		}
		return 0
	}
}

func dimOf(port int) int {
	if port == East || port == West {
		return 0
	}
	return 1
}

// Config describes a mesh network build.
type Config struct {
	W, H  int
	Torus bool
	Depth int
}

// Build assembles the mesh fabric and its adapters.
func Build(cfg Config) (*network.Fabric, []*network.BaseAdapter, error) {
	m, err := topology.NewMesh(cfg.W, cfg.H, cfg.Torus)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Depth < 1 {
		return nil, nil, fmt.Errorf("mesh: buffer depth %d", cfg.Depth)
	}
	n := m.N()
	routers := make([]*router.Router, n)
	wires := make([][]network.OutputWire, n)
	injStart := make([]int, n)
	inLanes := []int{link2VCs, link2VCs, link2VCs, link2VCs, 1}
	for node := 0; node < n; node++ {
		routers[node] = router.New(router.Config{
			Node:      node,
			VCs:       link2VCs,
			Depth:     cfg.Depth,
			InLanes:   inLanes,
			NOut:      numPorts,
			EjectPort: Eject,
			Route:     Route(m),
			VCNext:    VCNext(m),
			// XY turns make most input-output pairs legal; keep the crossbar
			// full and rely on the routing function (U-turns never happen
			// under XY, which the tests assert via link loads).
			Reach: nil,
		})
		x, y := m.XY(node)
		w := make([]network.OutputWire, numPorts)
		w[Eject] = network.OutputWire{Sink: true}
		// A border output on a plain mesh is wired back to the local sink
		// slot but must never be used; mark it as a sink so misrouting
		// panics in the tracker rather than corrupting a neighbour.
		set := func(out int, ok bool, nx, ny int) {
			if !ok {
				w[out] = network.OutputWire{Sink: true}
				return
			}
			var port int
			switch out {
			case East:
				port = West // arriving at the east neighbour from its west side
			case West:
				port = East
			case North:
				port = South
			case South:
				port = North
			}
			w[out] = network.OutputWire{Dst: network.PortRef{Node: m.ID(nx, ny), Port: port}}
		}
		if cfg.Torus {
			set(East, true, topology.Mod(x+1, m.W), y)
			set(West, true, topology.Mod(x-1, m.W), y)
			set(North, true, x, topology.Mod(y+1, m.H))
			set(South, true, x, topology.Mod(y-1, m.H))
		} else {
			set(East, x+1 < m.W, x+1, y)
			set(West, x-1 >= 0, x-1, y)
			set(North, y+1 < m.H, x, y+1)
			set(South, y-1 >= 0, x, y-1)
		}
		wires[node] = w
		injStart[node] = NumNetworkInputs
	}
	fab := network.New(routers, wires, injStart)
	as := make([]*network.BaseAdapter, n)
	for node := 0; node < n; node++ {
		as[node] = &network.BaseAdapter{Node: node, N: n, R: routers[node],
			Queues: make([]network.PacketQueue, 1), Inject: inject}
		fab.SetAdapter(node, as[node])
	}
	return fab, as, nil
}

// inject is the one-port injection rule: one source queue, one injection
// channel. Meshes have no hardware collective support, so the adapter's
// broadcast and multicast are its software unicast fan-outs.
func inject(int) (int, int) { return 0, Inj }
