package quarc_test

import (
	"fmt"
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/trace"
)

// TestMulticastToEveryoneIsBroadcast is a metamorphic check of the
// hop-aligned multicast bit on the running fabric. In an empty network a
// multicast from src to every other node takes the broadcast's four branches
// (topology.QuarcMulticastBranches) and finds its target bit set at every
// hop, where the broadcast clones unconditionally: so each node must receive
// each flit in the same cycle as from the broadcast, and the two messages
// must complete in the same cycle.
func TestMulticastToEveryoneIsBroadcast(t *testing.T) {
	const msgLen = 5
	for _, name := range []string{"quarc", "quarc-1queue"} {
		for n := 8; n <= 64; n += 4 {
			for _, src := range []int{0, 1, n/2 + 1, n - 1} {
				everyone := make([]int, 0, n-1)
				for d := 0; d < n; d++ {
					if d != src {
						everyone = append(everyone, d)
					}
				}
				bc, bcDone := deliveries(t, name, n, func(nodes []model.Node) {
					nodes[src].SendBroadcast(msgLen, 0)
				})
				mc, mcDone := deliveries(t, name, n, func(nodes []model.Node) {
					nodes[src].SendMulticast(everyone, msgLen, 0)
				})
				for d, cycles := range bc {
					if d != src && len(cycles) != msgLen {
						t.Fatalf("%s n=%d src=%d: broadcast delivered %d flits at node %d, want %d",
							name, n, src, len(cycles), d, msgLen)
					}
				}
				if fmt.Sprint(mc) != fmt.Sprint(bc) || mcDone != bcDone {
					t.Fatalf("%s n=%d src=%d: multicast to everyone delivered %v, done at %d; broadcast %v, done at %d",
						name, n, src, mc, mcDone, bc, bcDone)
				}
			}
		}
	}
}

// deliveries sends one message into an empty n-node network of the named
// model and steps it to completion. It returns the cycles each node received
// the message's flits in, in flit order, and the completion cycle.
func deliveries(t *testing.T, name string, n int, send func([]model.Node)) ([][]int64, int64) {
	t.Helper()
	fab, nodes, err := model.Build(name, model.BuildConfig{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	fab.Trace = trace.NewBuffer(1 << 14)
	done := int64(-1)
	fab.Tracker.OnDone = func(r network.MessageRecord) { done = r.Last }
	send(nodes)
	for i := 0; i < 10000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if done < 0 || fab.Trace.Total() > uint64(fab.Trace.Len()) {
		t.Fatalf("%s n=%d: message incomplete or trace wrapped", name, n)
	}
	got := make([][]int64, n)
	for _, e := range fab.Trace.Events() {
		if e.Kind == trace.Deliver {
			if e.Seq != len(got[e.Node]) {
				t.Fatalf("%s n=%d: node %d received flit %d out of order", name, n, e.Node, e.Seq)
			}
			got[e.Node] = append(got[e.Node], e.Cycle)
		}
	}
	return got, done
}
