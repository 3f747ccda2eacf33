package analytic

import (
	"testing"

	"quarc/internal/cdg"
	"quarc/internal/model"
)

// walkedCycle returns a cycle of the channel dependency graph over every
// unicast route of the named model's n-node network, or nil; vc maps the VC
// each hop's VCFunc chose.
func walkedCycle(t *testing.T, name string, n int, vc func(int) int) []cdg.Channel {
	g, err := cdg.Walked(name, n, vc)
	if err != nil {
		t.Fatal(err)
	}
	return g.Cycle()
}

// TestEveryModelDeadlockFree is the deadlock proof of every registered model
// at every size of the route checks: the CDG over the walked (node, output,
// VC) channels is acyclic. Broadcast and multicast branches need no graph of
// their own: a BRCP branch holds the channels of the unicast to its last
// node (topology's TestBroadcastBranchesFollowBaseRouting). The negative
// control is the same routes under a dateline-free VCFunc (every hop on VC
// 0): each rim ring and each torus dimension then closes a cycle, while XY
// routing on a plain mesh needs no VCs at all.
func TestEveryModelDeadlockFree(t *testing.T) {
	for _, name := range model.Names() {
		for _, n := range routeSizes(name) {
			if c := walkedCycle(t, name, n, func(vc int) int { return vc }); c != nil {
				t.Errorf("%s n=%d: channel dependency cycle %v", name, n, c)
			}
			c := walkedCycle(t, name, n, func(int) int { return 0 })
			// The shorter way round a torus dimension of 2 or 3 nodes is one
			// hop, so no route holds two links of one ring there.
			wantCycle := name != "mesh" && !(name == "torus" && n <= 9)
			if (c != nil) != wantCycle {
				t.Errorf("%s n=%d without a dateline: cycle %v, want one: %v", name, n, c, wantCycle)
			}
		}
	}
	for _, name := range model.Names() {
		t.Logf("%s: acyclic at n = %v", name, routeSizes(name))
	}
}
