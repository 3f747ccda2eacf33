// Package topology implements the graph-level arithmetic of the Quarc,
// Spidergon, mesh and torus topologies: quadrant calculation, the first-hop
// and next-hop decisions of their deterministic routing, the dateline VC
// rule, and the BRCP broadcast and multicast branch sets.
//
// Everything here is pure arithmetic over node identifiers, used by the
// cycle-level switch models (internal/quarc, internal/spidergon,
// internal/ring, internal/mesh), whose RouteFuncs are the only routes: the
// routes themselves, their hop counts and diameters are read off those
// switches by walking them (model.Routes). The package tests check the
// paper's stated properties (diameter N/4, edge symmetry, the Fig 6
// broadcast example) on the walked routes, without running the simulator.
package topology

import "fmt"

// Ring direction constants used by both Quarc and Spidergon.
type Direction int

const (
	CW  Direction = iota // clockwise: node i -> i+1 mod N
	CCW                  // counter-clockwise: node i -> i-1 mod N
)

func (d Direction) String() string {
	if d == CW {
		return "cw"
	}
	return "ccw"
}

// ValidateRingSize checks the constraints shared by Quarc and Spidergon:
// an even number of nodes, at least 8, divisible by 4 (quadrants), and at
// most 64 (single-flit header addressing, paper §2.6).
func ValidateRingSize(n int) error {
	switch {
	case n < 8:
		return fmt.Errorf("topology: %d nodes, need at least 8", n)
	case n%4 != 0:
		return fmt.Errorf("topology: %d nodes, need a multiple of 4 for quadrants", n)
	case n > 64:
		return fmt.Errorf("topology: %d nodes exceeds the 64-node header format", n)
	}
	return nil
}

// Mod returns x mod n in [0, n).
func Mod(x, n int) int {
	m := x % n
	if m < 0 {
		m += n
	}
	return m
}

// Offset returns the clockwise offset (dst - src) mod n; 0 means src == dst.
func Offset(n, src, dst int) int { return Mod(dst-src, n) }

// NextCW and NextCCW return ring neighbours.
func NextCW(n, i int) int  { return Mod(i+1, n) }
func NextCCW(n, i int) int { return Mod(i-1, n) }

// Antipode returns the node reached by the cross link.
func Antipode(n, i int) int { return Mod(i+n/2, n) }
