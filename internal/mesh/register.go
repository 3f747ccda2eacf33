package mesh

import (
	"fmt"
	"math"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/topology"
)

// checkSquare validates a node count for the square mesh/torus builds the
// registry exposes (the package itself also supports rectangles via Config).
// Unlike the ring models — pinned at 64 nodes by the paper's single-flit
// header format — the mesh scales with the tracker's multi-word delivery
// mask; the size cap is topology.NewMesh's 1,024 nodes, applied here so a
// request the build would refuse is refused at validation. The cap stays at
// 1,024 because the analytic model enumerates all N² routes of a mesh, and a
// first request at 4,096 nodes would spend tens of seconds in that
// enumeration.
func checkSquare(n int) error {
	side := int(math.Round(math.Sqrt(float64(n))))
	if n < 4 || side*side != n {
		return fmt.Errorf("mesh: size %d is not a square of at least 4 nodes", n)
	}
	_, err := topology.NewMesh(side, side, false)
	return err
}

func init() {
	register := func(name, desc string, torus bool) {
		model.Register(model.Model{
			Name:        name,
			Description: desc,
			CheckN:      checkSquare,
			ExampleN:    16,
			Build: func(bc model.BuildConfig) (*network.Fabric, []model.Node, error) {
				if err := checkSquare(bc.N); err != nil {
					return nil, nil, err
				}
				side := int(math.Round(math.Sqrt(float64(bc.N))))
				return model.Nodes(Build(Config{W: side, H: side, Torus: torus, Depth: bc.Depth}))
			},
		})
	}
	register("mesh", "2D mesh with XY routing, software broadcast (n-1 unicasts)", false)
	register("torus", "2D torus with XY routing and per-dimension dateline VCs", true)
}
