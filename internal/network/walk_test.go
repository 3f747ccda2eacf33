package network_test

import (
	"testing"

	"quarc/internal/model"
	_ "quarc/internal/models"
)

// BenchmarkWalk walks every ordered pair's unicast route of a 64-node Quarc
// and a 16x16 torus per op: the static route walk that the analytic model
// and the deadlock proofs read. It allocates nothing: the walk's header record
// stays on its stack.
func BenchmarkWalk(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"quarc", 64}, {"torus", 256}} {
		b.Run(c.name, func(b *testing.B) {
			fab, err := model.Routes(c.name, c.n)
			if err != nil {
				b.Fatal(err)
			}
			hops := 0
			visit := func(int, int, int) { hops++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < c.n; s++ {
					for d := 0; d < c.n; d++ {
						if s != d {
							fab.Walk(s, d, visit)
						}
					}
				}
			}
			if hops == 0 {
				b.Fatal("no route walked a hop")
			}
		})
	}
}
