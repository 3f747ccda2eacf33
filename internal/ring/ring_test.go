package ring

import (
	"testing"

	"quarc/internal/cdg"
	"quarc/internal/model"
	"quarc/internal/topology"
)

// TestCDGAcyclic checks the deadlock-freedom argument: the channel
// dependency graph over the routes the switches take, with the dateline VC
// split, has no directed cycle (Dally & Seitz).
func TestCDGAcyclic(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		g, err := cdg.Walked("ring", n, func(vc int) int { return vc })
		if err != nil {
			t.Fatal(err)
		}
		if c := g.Cycle(); c != nil {
			t.Errorf("n=%d: CDG has a cycle through %v", n, c)
		}
	}
}

// TestRouteChannelsShortest checks that every route the switches take is the
// shorter arc (ties go clockwise) and never exceeds n/2 hops.
func TestRouteChannelsShortest(t *testing.T) {
	n := 16
	fab, _, err := Build(Config{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			hops, cw := 0, true
			fab.Walk(s, d, func(_, out, _ int) {
				hops++
				cw = cw && out == RimCWOut
			})
			want := topology.Offset(n, s, d)
			if want > n/2 {
				want = n - want
			}
			if hops != want || cw != (topology.Offset(n, s, d) <= n/2) {
				t.Fatalf("route %d->%d: %d hops clockwise=%v, want %d", s, d, hops, cw, want)
			}
		}
	}
}

// TestUnicastAndBroadcastDeliver drives the fabric directly: every unicast
// and software broadcast lands, with no duplicates.
func TestUnicastAndBroadcastDeliver(t *testing.T) {
	fab, as, err := Build(Config{N: 16, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		as[s].SendUnicast((s+5)%16, 4, 0)
	}
	as[3].SendBroadcast(4, 0)
	for i := 0; i < 20000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if left := fab.Tracker.InFlight(); left != 0 {
		t.Fatalf("%d messages still in flight", left)
	}
	if dup := fab.Tracker.Duplicates(); dup != 0 {
		t.Fatalf("%d duplicate deliveries", dup)
	}
	if got, want := fab.Tracker.Completed(), uint64(17); got != want {
		t.Fatalf("completed %d messages, want %d", got, want)
	}
}

// TestRegistered checks the package registered itself under its wire name.
func TestRegistered(t *testing.T) {
	m, ok := model.Lookup("ring")
	if !ok {
		t.Fatal("ring is not registered")
	}
	if err := m.CheckN(16); err != nil {
		t.Fatalf("CheckN(16): %v", err)
	}
	if m.CheckN(7) == nil {
		t.Fatal("CheckN(7) accepted a non-ring size")
	}
	fab, nodes, err := m.Build(model.BuildConfig{N: m.ExampleN, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fab.N != m.ExampleN || len(nodes) != m.ExampleN {
		t.Fatalf("built %d routers, %d nodes; want %d", fab.N, len(nodes), m.ExampleN)
	}
}
