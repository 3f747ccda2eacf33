package mesh

import (
	"fmt"
	"math"

	"quarc/internal/model"
	"quarc/internal/network"
)

// checkSquare validates a node count for the square mesh/torus builds the
// registry exposes (the package itself also supports rectangles via Config).
// Unlike the ring models — pinned at 64 nodes by the paper's single-flit
// header format — the mesh scales with the tracker's multi-word delivery
// mask; the cap only bounds memory per simulated point.
func checkSquare(n int) error {
	side := int(math.Round(math.Sqrt(float64(n))))
	if n < 4 || side*side != n {
		return fmt.Errorf("mesh: size %d is not a square of at least 4 nodes", n)
	}
	if n > 4096 {
		return fmt.Errorf("mesh: size %d exceeds the 4096-node cap", n)
	}
	return nil
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
				fab, as, err := Build(Config{W: side, H: side, Torus: torus, Depth: bc.Depth})
				if err != nil {
					return nil, nil, err
				}
				return fab, model.Nodes(as), nil
			},
		})
	}
	register("mesh", "2D mesh with XY routing, software broadcast (n-1 unicasts)", false)
	register("torus", "2D torus with XY routing and per-dimension dateline VCs", true)
}
