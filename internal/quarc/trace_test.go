package quarc_test

import (
	"fmt"
	"testing"

	"quarc/internal/model"
	_ "quarc/internal/models"
	"quarc/internal/trace"
)

// TestTraceMatchesDeterministicRoute ties the static walk to the running
// fabric: for every registered model at its ExampleN, a unicast from every
// node to every other is sent at once, and each packet's traced header hops
// — switch, output port and VC — must be exactly the route model.Routes
// walks for its pair (paper §2.5.1: the route is completely determined by
// the injection port).
func TestTraceMatchesDeterministicRoute(t *testing.T) {
	for _, m := range model.All() {
		t.Run(m.Name, func(t *testing.T) {
			n := m.ExampleN
			routes, err := model.Routes(m.Name, n)
			if err != nil {
				t.Fatal(err)
			}
			fab, nodes, err := m.Build(model.BuildConfig{N: n, Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			fab.Trace = trace.NewBuffer(1 << 16)
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s != d {
						nodes[s].SendUnicast(d, 2, fab.Now())
					}
				}
			}
			for i := 0; i < 100000 && fab.Tracker.InFlight() > 0; i++ {
				fab.Step()
			}
			if left := fab.Tracker.InFlight(); left != 0 {
				t.Fatalf("%d messages still in flight", left)
			}
			if fab.Trace.Total() > uint64(fab.Trace.Len()) {
				t.Fatalf("trace buffer wrapped: %d events recorded", fab.Trace.Total())
			}
			// Each packet's header hops in order, and the node that took its
			// header.
			hops, dst := map[uint64][]string{}, map[uint64]int{}
			src := map[uint64]int{}
			for _, e := range fab.Trace.Events() {
				if e.Seq != 0 {
					continue
				}
				if _, ok := src[e.PktID]; !ok {
					src[e.PktID] = e.Node
				}
				switch e.Kind {
				case trace.Forward:
					hops[e.PktID] = append(hops[e.PktID], fmt.Sprint(e.Node, e.Out, e.VC))
				case trace.Deliver:
					dst[e.PktID] = e.Node
				}
			}
			if len(dst) != n*(n-1) {
				t.Fatalf("traced %d delivered headers, want %d", len(dst), n*(n-1))
			}
			for pkt, d := range dst {
				s := src[pkt]
				var want []string
				routes.Walk(s, d, func(node, out, vc int) { want = append(want, fmt.Sprint(node, out, vc)) })
				if fmt.Sprint(hops[pkt]) != fmt.Sprint(want) {
					t.Fatalf("pkt %d %d->%d: traced hops %v, walked %v", pkt, s, d, hops[pkt], want)
				}
			}
		})
	}
}
