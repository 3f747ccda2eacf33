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

// Step returns the next direction under XY routing from cur toward dst;
// MLocal when cur == dst. On a torus it takes the shorter way around each
// dimension, preferring the positive direction on ties (deterministic).
func (m Mesh) Step(cur, dst int) MeshDir {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	switch {
	case cx != dx && m.positive(cx, dx, m.W):
		return MEast
	case cx != dx:
		return MWest
	case cy != dy && m.positive(cy, dy, m.H):
		return MNorth
	case cy != dy:
		return MSouth
	}
	return MLocal
}

// positive reports whether XY routing moves from coordinate c toward d in
// the positive direction of a dimension of the given size: toward the larger
// coordinate on a mesh, the shorter way around (positive on a tie) on a torus.
func (m Mesh) positive(c, d, size int) bool {
	if !m.Torus {
		return d > c
	}
	fwd := d - c // both coordinates are in [0, size)
	if fwd < 0 {
		fwd += size
	}
	return fwd <= size-fwd
}
