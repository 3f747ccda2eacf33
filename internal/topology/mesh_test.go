package topology

import (
	"testing"
	"testing/quick"
)

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(1, 4, false); err == nil {
		t.Error("accepted 1-wide mesh")
	}
	if _, err := NewMesh(4, 1, false); err == nil {
		t.Error("accepted 1-high mesh")
	}
	if _, err := NewMesh(64, 64, false); err == nil {
		t.Error("accepted oversized mesh")
	}
	if _, err := NewMesh(4, 4, true); err != nil {
		t.Errorf("rejected 4x4 torus: %v", err)
	}
}

func TestMeshCoordinates(t *testing.T) {
	m, _ := NewMesh(4, 3, false)
	if m.N() != 12 {
		t.Fatalf("N = %d", m.N())
	}
	for id := 0; id < m.N(); id++ {
		x, y := m.XY(id)
		if m.ID(x, y) != id {
			t.Fatalf("XY/ID mismatch at %d", id)
		}
	}
	if x, y := m.XY(7); x != 3 || y != 1 {
		t.Fatalf("XY(7) = (%d,%d)", x, y)
	}
}

func TestMeshXYOrder(t *testing.T) {
	// XY routing resolves the X dimension completely before Y.
	m, _ := NewMesh(4, 4, false)
	src, dst := m.ID(0, 0), m.ID(3, 3)
	cur := src
	sawY := false
	for cur != dst {
		dir := m.Step(cur, dst)
		switch dir {
		case MEast, MWest:
			if sawY {
				t.Fatal("X move after Y move: not XY routing")
			}
		case MNorth, MSouth:
			sawY = true
		}
		cur = neighbour(m, cur, dir)
	}
}

func TestMeshStepTerminatesProperty(t *testing.T) {
	check := func(w, h uint8, s, d uint16, torus bool) bool {
		mw, mh := int(w%6)+2, int(h%6)+2
		m, err := NewMesh(mw, mh, torus)
		if err != nil {
			return false
		}
		src := int(s) % m.N()
		dst := int(d) % m.N()
		cur := src
		for steps := 0; cur != dst; steps++ {
			if steps > m.N() {
				return false
			}
			cur = neighbour(m, cur, m.Step(cur, dst))
		}
		return m.Step(dst, dst) == MLocal
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// neighbour returns the node one link from cur in direction d, wrapping
// around on a torus; cur itself for MLocal.
func neighbour(m Mesh, cur int, d MeshDir) int {
	x, y := m.XY(cur)
	switch d {
	case MEast:
		x++
	case MWest:
		x--
	case MNorth:
		y++
	case MSouth:
		y--
	}
	return m.ID(Mod(x, m.W), Mod(y, m.H))
}
