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
	n := m.N()
	sw := router.Config{
		VCs:       link2VCs,
		Depth:     cfg.Depth,
		InLanes:   []int{link2VCs, link2VCs, link2VCs, link2VCs, 1},
		NOut:      numPorts,
		EjectPort: Eject,
		Route:     Route(m),
		VCNext:    VCNext(m),
		// XY turns make most input-output pairs legal; keep the crossbar
		// full and rely on the routing function (U-turns never happen
		// under XY, which the tests assert via link loads).
		Reach: nil,
	}
	wires := func(node int) []network.OutputWire {
		x, y := m.XY(node)
		w := make([]network.OutputWire, numPorts)
		w[Eject].Sink = true
		// Each output leads to the neighbour's input facing back (East and
		// West, North and South: port^1). A border output on a plain mesh
		// must never be used; marked as a sink, a misroute through it panics
		// in the tracker rather than corrupting a neighbour.
		for out, d := range [...][2]int{East: {1, 0}, West: {-1, 0}, North: {0, 1}, South: {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if cfg.Torus {
				nx, ny = topology.Mod(nx, m.W), topology.Mod(ny, m.H)
			}
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				w[out].Sink = true
				continue
			}
			w[out].Dst = network.PortRef{Node: m.ID(nx, ny), Port: out ^ 1}
		}
		return w
	}
	return network.Build(n, sw, NumNetworkInputs, wires, func(node int, r *router.Router) *network.BaseAdapter {
		return &network.BaseAdapter{Node: node, N: n, R: r,
			Queues: make([]network.PacketQueue, 1), Inject: inject}
	})
}

// inject is the one-port injection rule: one source queue, one injection
// channel. Meshes have no hardware collective support, so the adapter's
// broadcast and multicast are its software unicast fan-outs.
func inject(int) (int, int) { return 0, Inj }
