package topology

import "fmt"

// Mesh describes a W x H 2D mesh (or torus) with nodes numbered row-major:
// node = y*W + x. Meshes are used to verify the simulator against analytical
// models (paper §3.2) and for the future-work comparison the conclusion
// announces.
type Mesh struct {
	W, H  int
	Torus bool // wraparound links in both dimensions
}

// NewMesh validates and returns a mesh geometry.
func NewMesh(w, h int, torus bool) (Mesh, error) {
	if w < 2 || h < 2 {
		return Mesh{}, fmt.Errorf("topology: mesh %dx%d too small", w, h)
	}
	if w*h > 1024 {
		return Mesh{}, fmt.Errorf("topology: mesh %dx%d too large", w, h)
	}
	return Mesh{W: w, H: h, Torus: torus}, nil
}

// N returns the node count.
func (m Mesh) N() int { return m.W * m.H }

// XY returns the coordinates of node id.
func (m Mesh) XY(id int) (x, y int) { return id % m.W, id / m.W }

// ID returns the node at coordinates (x, y).
func (m Mesh) ID(x, y int) int { return y*m.W + x }

// MeshDir is a mesh output direction under dimension-order (XY) routing.
type MeshDir int

const (
	MEast MeshDir = iota
	MWest
	MNorth // +y
	MSouth // -y
	MLocal
)

func (d MeshDir) String() string {
	switch d {
	case MEast:
		return "east"
	case MWest:
		return "west"
	case MNorth:
		return "north"
	case MSouth:
		return "south"
	case MLocal:
		return "local"
	}
	return fmt.Sprintf("MeshDir(%d)", int(d))
}

// Step returns the next direction under XY routing from cur toward dst, and
// the neighbouring node in that direction. Returns MLocal when cur == dst.
// On a torus it takes the shorter way around each dimension, preferring the
// positive direction on ties (deterministic).
func (m Mesh) Step(cur, dst int) (MeshDir, int) {
	if cur == dst {
		return MLocal, cur
	}
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	if cx != dx {
		if m.Torus {
			fwd := Mod(dx-cx, m.W)
			if fwd <= m.W-fwd {
				return MEast, m.ID(Mod(cx+1, m.W), cy)
			}
			return MWest, m.ID(Mod(cx-1, m.W), cy)
		}
		if dx > cx {
			return MEast, m.ID(cx+1, cy)
		}
		return MWest, m.ID(cx-1, cy)
	}
	if m.Torus {
		fwd := Mod(dy-cy, m.H)
		if fwd <= m.H-fwd {
			return MNorth, m.ID(cx, Mod(cy+1, m.H))
		}
		return MSouth, m.ID(cx, Mod(cy-1, m.H))
	}
	if dy > cy {
		return MNorth, m.ID(cx, cy+1)
	}
	return MSouth, m.ID(cx, cy-1)
}
