package router

import (
	"testing"

	"quarc/internal/flit"
)

// twoNodeLine builds two routers A -> B connected by one link: A input 0 is
// fed by the test, A output 0 leads to B input 0, B output 0 is unused, and
// the route function ejects at B (node 1) via dedicated ejection.
func twoNodeLine(depth int) (*Router, *Router) {
	route := func(node, in int, f flit.Flit) Decision {
		if node == 1 {
			return Decision{Out: NoOutput, Eject: true}
		}
		return Decision{Out: 0}
	}
	vc := func(node, out, in, cur int, f flit.Flit) int { return cur }
	mk := func(id int) *Router {
		return New(Config{
			Node: id, VCs: 2, Depth: depth,
			InLanes: []int{2}, NOut: 1, EjectPort: NoOutput,
			Route: route, VCNext: vc,
		})
	}
	return mk(0), mk(1)
}

type creditOf struct {
	r    *Router
	port int
}

func (c creditOf) CreditFree(vc int) int { return c.r.SnapFree(c.port, vc) }

// step runs one two-phase cycle over the two-node line and returns B's
// delivered flits.
func step(a, b *Router) []flit.Flit {
	a.Snapshot()
	b.Snapshot()
	am := a.Arbitrate([]Downstream{creditOf{b, 0}}, nil)
	bm := b.Arbitrate([]Downstream{nil}, nil)
	a.Commit(am)
	b.Commit(bm)
	var delivered []flit.Flit
	for _, m := range am {
		if m.Out == 0 {
			if !b.Push(0, m.OutVC, &m.Flit) {
				panic("push failed")
			}
		}
	}
	for _, m := range bm {
		if m.Deliver {
			delivered = append(delivered, m.Flit)
		}
	}
	return delivered
}

func pkt(id uint64, n, dst int) []flit.Flit {
	return flit.Packet(flit.Flit{Src: 0, Dst: dst, PktID: id, MsgID: id}, n)
}

func TestSingleHopPipeline(t *testing.T) {
	a, b := twoNodeLine(4)
	p := pkt(1, 4, 1)
	for _, f := range p {
		if !a.Push(0, 0, &f) {
			t.Fatal("push rejected")
		}
	}
	var got []flit.Flit
	for cyc := 0; cyc < 20 && len(got) < 4; cyc++ {
		got = append(got, step(a, b)...)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d flits, want 4", len(got))
	}
	for i, f := range got {
		if f.Seq != i {
			t.Fatalf("flit %d has seq %d (out of order)", i, f.Seq)
		}
	}
}

func TestBackPressureLimitsOccupancy(t *testing.T) {
	// With depth 2 at B and nothing draining B (eject happens though...),
	// use a route that never ejects to create a hard block.
	blockRoute := func(node, in int, f flit.Flit) Decision {
		if node == 1 {
			return Decision{Out: 0} // forward into the void: B out 0 has no credit view -> nil means infinite, so use a full lane instead
		}
		return Decision{Out: 0}
	}
	_ = blockRoute
	// Simpler: fill B's lane manually and check A cannot send.
	a, b := twoNodeLine(2)
	// Occupy B's input lane 0 completely with an unrelated packet that
	// cannot move (its head is a header that routes to eject — but we never
	// step B, so it just sits there).
	blocker := pkt(9, 2, 1)
	b.Push(0, 0, &blocker[0])
	b.Push(0, 0, &blocker[1])

	p := pkt(1, 3, 1)
	for _, f := range p {
		a.Push(0, 0, &f)
	}
	a.Snapshot()
	b.Snapshot()
	moves := a.Arbitrate([]Downstream{creditOf{b, 0}}, nil)
	for _, m := range moves {
		if m.Out == 0 && m.OutVC == 0 {
			t.Fatal("A sent into a full downstream lane")
		}
	}
}

func TestHeaderAllocatesVCBodyFollowsTailReleases(t *testing.T) {
	a, b := twoNodeLine(4)
	p := pkt(1, 3, 1)
	for _, f := range p {
		a.Push(0, 0, &f)
	}
	// Cycle 1: header moves, VC 0 owned by input 0 lane 0.
	step(a, b)
	if _, _, held := a.VCOwner(0, 0); !held {
		t.Fatal("header did not allocate the downstream VC")
	}
	step(a, b) // body
	if _, _, held := a.VCOwner(0, 0); !held {
		t.Fatal("VC released before tail")
	}
	step(a, b) // tail
	if _, _, held := a.VCOwner(0, 0); held {
		t.Fatal("tail did not release the VC")
	}
}

func TestTwoPacketsInterleaveAcrossVCs(t *testing.T) {
	// Packets in different lanes of the same input share the physical link
	// by alternating (VC arbiter), each on its own downstream VC.
	a, b := twoNodeLine(8)
	p0, p1 := pkt(1, 4, 1), pkt(2, 4, 1)
	for _, f := range p0 {
		a.Push(0, 0, &f)
	}
	for _, f := range p1 {
		a.Push(0, 1, &f)
	}
	var got []uint64
	for cyc := 0; cyc < 40 && len(got) < 8; cyc++ {
		for _, f := range step(a, b) {
			if f.Kind == flit.Tail {
				got = append(got, f.PktID)
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d tails, want 2", len(got))
	}
}

func TestVCArbiterSwitchesOnBlock(t *testing.T) {
	// Lane 0 holds a packet that cannot advance (downstream VC 0 lane full);
	// lane 1 holds a packet for the free VC 1. The arbiter must let lane 1
	// proceed rather than spinning on lane 0.
	route := func(node, in int, f flit.Flit) Decision {
		if node == 1 {
			return Decision{Out: NoOutput, Eject: true}
		}
		return Decision{Out: 0}
	}
	// Force lane-indexed VCs downstream so lane 0 -> VC 0, lane 1 -> VC 1.
	vcf := func(node, out, in, cur int, f flit.Flit) int { return cur }
	mk := func(id int) *Router {
		return New(Config{Node: id, VCs: 2, Depth: 2, InLanes: []int{2}, NOut: 1,
			EjectPort: NoOutput, Route: route, VCNext: vcf})
	}
	a, b := mk(0), mk(1)
	// Fill B lane 0 so VC 0 has no credit.
	blocker := pkt(9, 2, 1)
	b.Push(0, 0, &blocker[0])
	b.Push(0, 0, &blocker[1])

	p0, p1 := pkt(1, 3, 1), pkt(2, 3, 1)
	for _, f := range p0 {
		a.Push(0, 0, &f)
	}
	for _, f := range p1 {
		a.Push(0, 1, &f)
	}
	moved := false
	for cyc := 0; cyc < 6; cyc++ {
		a.Snapshot()
		b.Snapshot()
		am := a.Arbitrate([]Downstream{creditOf{b, 0}}, nil)
		a.Commit(am)
		for _, m := range am {
			if m.Out == 0 {
				if m.Flit.PktID == 1 {
					t.Fatal("blocked packet moved")
				}
				moved = true
				b.Push(0, m.OutVC, &m.Flit)
			}
		}
	}
	if !moved {
		t.Fatal("VC arbiter never switched to the unblocked lane")
	}
}

func TestOutputArbitrationIsFair(t *testing.T) {
	// Two inputs compete for one output; round-robin must alternate grants.
	route := func(node, in int, f flit.Flit) Decision { return Decision{Out: 0} }
	vcf := func(node, out, in, cur int, f flit.Flit) int {
		return in % 2 // input 0 -> VC 0, input 1 -> VC 1, so both can hold VCs
	}
	a := New(Config{Node: 0, VCs: 2, Depth: 8, InLanes: []int{1, 1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	sink := New(Config{Node: 1, VCs: 2, Depth: 64, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput,
		Route:     func(node, in int, f flit.Flit) Decision { return Decision{Out: NoOutput, Eject: true} },
		VCNext:    vcf})
	for _, f := range pkt(1, 6, 9) {
		a.Push(0, 0, &f)
	}
	for _, f := range pkt(2, 6, 9) {
		a.Push(1, 0, &f)
	}
	var order []uint64
	for cyc := 0; cyc < 30 && len(order) < 12; cyc++ {
		a.Snapshot()
		sink.Snapshot()
		am := a.Arbitrate([]Downstream{creditOf{sink, 0}}, nil)
		a.Commit(am)
		for _, m := range am {
			if m.Out == 0 {
				order = append(order, m.Flit.PktID)
				sink.Push(0, m.OutVC, &m.Flit)
			}
		}
		sm := sink.Arbitrate([]Downstream{nil}, nil)
		sink.Commit(sm)
	}
	if len(order) != 12 {
		t.Fatalf("forwarded %d flits, want 12", len(order))
	}
	// Both packets progress concurrently: within the first 6 grants there
	// must be flits of both.
	seen := map[uint64]bool{}
	for _, id := range order[:6] {
		seen[id] = true
	}
	if len(seen) != 2 {
		t.Fatalf("output arbitration starved a packet: first grants %v", order[:6])
	}
}

func TestReachabilityViolationPanics(t *testing.T) {
	route := func(node, in int, f flit.Flit) Decision { return Decision{Out: 0} }
	vcf := func(node, out, in, cur int, f flit.Flit) int { return 0 }
	r := New(Config{Node: 0, VCs: 2, Depth: 2, InLanes: []int{1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf,
		Reach: [][]int{{}}, // output 0 reachable from nothing
	})
	r.Push(0, 0, &pkt(1, 2, 5)[0])
	r.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("unreachable route did not panic")
		}
	}()
	r.Arbitrate([]Downstream{nil}, nil)
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []Config{
		{VCs: 0, Depth: 1, InLanes: []int{1}, NOut: 1},
		{VCs: 2, Depth: 0, InLanes: []int{1}, NOut: 1},
		{VCs: 2, Depth: 1, InLanes: nil, NOut: 1},
		{VCs: 2, Depth: 1, InLanes: []int{0}, NOut: 1},
		{VCs: 2, Depth: 1, InLanes: []int{1}, NOut: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad config accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCloneDeliversAndForwards(t *testing.T) {
	// A clone decision delivers a copy and forwards the flit in one cycle.
	route := func(node, in int, f flit.Flit) Decision {
		if node == 0 {
			return Decision{Out: 0, Eject: true, Clone: true}
		}
		return Decision{Out: NoOutput, Eject: true}
	}
	vcf := func(node, out, in, cur int, f flit.Flit) int { return 0 }
	a := New(Config{Node: 0, VCs: 2, Depth: 4, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	b := New(Config{Node: 1, VCs: 2, Depth: 4, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	p := pkt(1, 3, 9)
	for _, f := range p {
		a.Push(0, 0, &f)
	}
	deliveredAtA := 0
	arrivedAtB := 0
	for cyc := 0; cyc < 10; cyc++ {
		a.Snapshot()
		b.Snapshot()
		am := a.Arbitrate([]Downstream{creditOf{b, 0}}, nil)
		a.Commit(am)
		for _, m := range am {
			if m.Deliver {
				deliveredAtA++
			}
			if m.Out == 0 {
				arrivedAtB++
				b.Push(0, m.OutVC, &m.Flit)
			}
		}
	}
	if deliveredAtA != 3 || arrivedAtB != 3 {
		t.Fatalf("clone delivered %d / forwarded %d, want 3/3", deliveredAtA, arrivedAtB)
	}
}

func BenchmarkTwoNodeForwarding(b *testing.B) {
	a, bb := twoNodeLine(8)
	p := pkt(1, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p[0].PktID = uint64(i + 1)
		p[1].PktID = uint64(i + 1)
		a.Push(0, 0, &p[0])
		a.Push(0, 0, &p[1])
		for a.LaneLen(0, 0) > 0 || bb.LaneLen(0, 0) > 0 {
			step(a, bb)
		}
	}
}

func TestCommitDesyncPanics(t *testing.T) {
	for name, corrupt := range map[string]func(*Move){
		"pkt":   func(m *Move) { m.Flit.PktID++ },
		"seq":   func(m *Move) { m.Flit.Seq++ },
		"empty": func(m *Move) { m.Lane = 1 }, // sibling lane holds nothing
	} {
		a, b := twoNodeLine(4)
		a.Push(0, 0, &pkt(1, 2, 1)[0])
		a.Snapshot()
		b.Snapshot()
		moves := a.Arbitrate([]Downstream{creditOf{b, 0}}, nil)
		if len(moves) != 1 {
			t.Fatalf("%s: %d moves, want 1", name, len(moves))
		}
		corrupt(&moves[0])
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: commit of a move that does not match the lane head did not panic", name)
				}
			}()
			a.Commit(moves)
		}()
	}
}

func TestPushReportsFullLane(t *testing.T) {
	a, _ := twoNodeLine(2)
	p := pkt(1, 3, 1)
	if !a.Push(0, 0, &p[0]) || !a.Push(0, 0, &p[1]) {
		t.Fatal("push into a lane with space rejected")
	}
	if a.Push(0, 0, &p[2]) {
		t.Fatal("push into a full lane accepted")
	}
	if a.LaneLen(0, 0) != 2 || a.LaneFree(0, 0) != 0 || a.Quiescent() {
		t.Fatalf("rejected push disturbed the lane: len %d free %d", a.LaneLen(0, 0), a.LaneFree(0, 0))
	}
	if !a.Push(0, 1, &p[2]) {
		t.Fatal("full lane blocked its sibling")
	}
}

func TestNoActionRoutePanics(t *testing.T) {
	route := func(node, in int, f flit.Flit) Decision { return Decision{Out: NoOutput} }
	vcf := func(node, out, in, cur int, f flit.Flit) int { return 0 }
	r := New(Config{Node: 0, VCs: 2, Depth: 2, InLanes: []int{1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	r.Push(0, 0, &pkt(1, 2, 5)[0])
	r.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("route with no action did not panic")
		}
	}()
	r.Arbitrate([]Downstream{nil}, nil)
}
