package router

import (
	"testing"

	"quarc/internal/flit"
)

// linkPair is the smallest network a switch can be exercised in: A's output 0
// wired to B's input 0, with the credit of every flit B pops from that port
// returned to A — what internal/network does for a whole wiring table. The
// datapath and statistics tests and BenchmarkRouterHop drive this harness
// (internal/link's signal-level oracle drives its own, through the exported
// API).
type linkPair struct {
	A, B   *Router
	am, bm []Move
}

// newLinkPair connects a's output 0 to b's input 0. The slots a forwards
// name packets in a's packet table, so b resolves them there too, as the
// switches of one NewSet share one table.
func newLinkPair(a, b *Router) *linkPair {
	a.ConnectOutput(0, b.Lanes(0), b.Depth())
	b.pkts = a.pkts
	return &linkPair{A: a, B: b}
}

// Step runs one cycle: both switches arbitrate and commit against the
// start-of-cycle state, then A's forwarded flits cross the link and B's pops
// return their credits. With drain false B sits the cycle out (a consumer
// that has stalled), which is how tests build back-pressure. The returned
// moves, and the flits MoveFlit reads for them, are valid until the next
// push into their switch.
func (p *linkPair) Step(drain bool) (am, bm []Move) {
	p.am = p.A.Arbitrate(p.am[:0])
	p.bm = p.bm[:0]
	if drain {
		p.bm = p.B.Arbitrate(p.bm)
	}
	p.A.Commit(p.am)
	p.B.Commit(p.bm)
	for i := range p.am {
		if m := &p.am[i]; m.Out == 0 && !p.B.Push(0, int(m.OutVC), p.A.MoveFlit(m)) {
			panic("linkPair: push into a full lane")
		}
	}
	for i := range p.bm {
		if m := &p.bm[i]; m.In == 0 {
			p.A.ReturnCredit(0, int(m.Lane))
		}
	}
	return p.am, p.bm
}

// twoNodeLine builds two routers A -> B connected by one link: A input 0 is
// fed by the test, A output 0 leads to B input 0, B output 0 is unused, and
// the route function ejects at B (node 1) via dedicated ejection.
func twoNodeLine(depth int) *linkPair {
	route := func(node, in int, h Header, hop int) Decision {
		if node == 1 {
			return Decision{Out: NoOutput, Eject: true}
		}
		return Decision{Out: 0}
	}
	vc := func(node, out, in, cur int) int { return cur }
	mk := func(id int) *Router {
		return New(Config{
			Node: id, VCs: 2, Depth: depth,
			InLanes: []int{2}, NOut: 1, EjectPort: NoOutput,
			Route: route, VCNext: vc,
		})
	}
	return newLinkPair(mk(0), mk(1))
}

// step runs one cycle over the pair and returns B's delivered flits.
func step(p *linkPair) []flit.Flit {
	_, bm := p.Step(true)
	var delivered []flit.Flit
	for i := range bm {
		if m := &bm[i]; m.Deliver {
			delivered = append(delivered, p.B.Packets().Flit(p.B.MoveFlit(m)))
		}
	}
	return delivered
}

// pkt adds packet id's header to r's packet table and returns the slots of
// its n flits, laid out as flit.Packet lays out the flits.
func pkt(r *Router, id uint64, n, dst int) []Slot {
	h := flit.Flit{Src: 0, Dst: dst, PktID: id, MsgID: id}
	return packetSlots(r.Packets().Add(&h, n), n)
}

// packetSlots expands a packet's header slot into its n slots.
func packetSlots(h Slot, n int) []Slot {
	s := make([]Slot, n)
	for i := range s {
		s[i] = h
		if i > 0 {
			s[i].Kind, s[i].Seq, s[i].Payload = flit.Body, int32(i), uint32(i)
		}
	}
	s[n-1].Kind = flit.Tail
	return s
}

// pktID reads the packet id of a slot r holds.
func pktID(r *Router, s *Slot) uint64 { return r.Packets().Flit(s).PktID }

// block fills B's lane vc through the link with a packet B never drains, so
// A is left without credit on that VC (and with the VC released: the
// blocker's tail has crossed).
func block(t *testing.T, p *linkPair, vc int) {
	t.Helper()
	depth := p.B.Depth()
	for _, f := range pkt(p.A, 9, depth, 1) {
		p.A.Push(0, vc, &f)
	}
	for i := 0; i < depth; i++ {
		p.Step(false)
	}
	if p.A.Credit(0, vc) != 0 || p.B.LaneFree(0, vc) != 0 {
		t.Fatalf("blocker left credit %d, lane free %d", p.A.Credit(0, vc), p.B.LaneFree(0, vc))
	}
}

func TestSingleHopPipeline(t *testing.T) {
	p0 := twoNodeLine(4)
	a := p0.A
	p := pkt(a, 1, 4, 1)
	for _, f := range p {
		if !a.Push(0, 0, &f) {
			t.Fatal("push rejected")
		}
	}
	var got []flit.Flit
	for cyc := 0; cyc < 20 && len(got) < 4; cyc++ {
		got = append(got, step(p0)...)
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
	// B's lane 0 is full of a packet B never drains: A, out of credit on
	// VC 0, must not send into it.
	lp := twoNodeLine(2)
	block(t, lp, 0)
	for _, f := range pkt(lp.A, 1, 3, 1)[:2] {
		lp.A.Push(0, 0, &f)
	}
	for cyc := 0; cyc < 4; cyc++ {
		if am, _ := lp.Step(false); len(am) != 0 {
			t.Fatal("A sent into a full downstream lane")
		}
	}
}

func TestHeaderAllocatesVCBodyFollowsTailReleases(t *testing.T) {
	lp := twoNodeLine(4)
	a := lp.A
	p := pkt(a, 1, 3, 1)
	for _, f := range p {
		a.Push(0, 0, &f)
	}
	// Cycle 1: header moves, VC 0 owned by input 0 lane 0.
	step(lp)
	if _, _, held := a.VCOwner(0, 0); !held {
		t.Fatal("header did not allocate the downstream VC")
	}
	step(lp) // body
	if _, _, held := a.VCOwner(0, 0); !held {
		t.Fatal("VC released before tail")
	}
	step(lp) // tail
	if _, _, held := a.VCOwner(0, 0); held {
		t.Fatal("tail did not release the VC")
	}
}

func TestTwoPacketsInterleaveAcrossVCs(t *testing.T) {
	// Packets in different lanes of the same input share the physical link
	// by alternating (VC arbiter), each on its own downstream VC.
	lp := twoNodeLine(8)
	a := lp.A
	p0, p1 := pkt(a, 1, 4, 1), pkt(a, 2, 4, 1)
	for _, f := range p0 {
		a.Push(0, 0, &f)
	}
	for _, f := range p1 {
		a.Push(0, 1, &f)
	}
	var got []uint64
	for cyc := 0; cyc < 40 && len(got) < 8; cyc++ {
		for _, f := range step(lp) {
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
	// lane 1 holds a packet for the free VC 1 (twoNodeLine keeps lane l on
	// VC l). The arbiter must let lane 1 proceed rather than spinning on
	// lane 0.
	lp := twoNodeLine(2)
	block(t, lp, 0)
	for _, f := range pkt(lp.A, 1, 3, 1)[:2] {
		lp.A.Push(0, 0, &f)
	}
	for _, f := range pkt(lp.A, 2, 3, 1)[:2] {
		lp.A.Push(0, 1, &f)
	}
	moved := false
	for cyc := 0; cyc < 6; cyc++ {
		am, _ := lp.Step(false)
		for i := range am {
			if pktID(lp.A, lp.A.MoveFlit(&am[i])) == 1 {
				t.Fatal("blocked packet moved")
			}
			moved = true
		}
	}
	if !moved {
		t.Fatal("VC arbiter never switched to the unblocked lane")
	}
}

func TestOutputArbitrationIsFair(t *testing.T) {
	// Two inputs compete for one output; round-robin must alternate grants.
	route := func(node, in int, h Header, hop int) Decision { return Decision{Out: 0} }
	vcf := func(node, out, in, cur int) int {
		return in % 2 // input 0 -> VC 0, input 1 -> VC 1, so both can hold VCs
	}
	a := New(Config{Node: 0, VCs: 2, Depth: 8, InLanes: []int{1, 1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	sink := New(Config{Node: 1, VCs: 2, Depth: 64, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput,
		Route:     func(node, in int, h Header, hop int) Decision { return Decision{Out: NoOutput, Eject: true} },
		VCNext:    vcf})
	for _, f := range pkt(a, 1, 6, 9) {
		a.Push(0, 0, &f)
	}
	for _, f := range pkt(a, 2, 6, 9) {
		a.Push(1, 0, &f)
	}
	lp := newLinkPair(a, sink)
	var order []uint64
	for cyc := 0; cyc < 30 && len(order) < 12; cyc++ {
		am, _ := lp.Step(true)
		for i := range am {
			order = append(order, pktID(a, a.MoveFlit(&am[i])))
		}
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
	route := func(node, in int, h Header, hop int) Decision { return Decision{Out: 0} }
	vcf := func(node, out, in, cur int) int { return 0 }
	r := New(Config{Node: 0, VCs: 2, Depth: 2, InLanes: []int{1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf,
		Reach: [][]int{{}}, // output 0 reachable from nothing
	})
	r.Push(0, 0, &pkt(r, 1, 2, 5)[0])
	defer func() {
		if recover() == nil {
			t.Fatal("unreachable route did not panic")
		}
	}()
	r.Arbitrate(nil)
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
	route := func(node, in int, h Header, hop int) Decision {
		if node == 0 {
			return Decision{Out: 0, Eject: true, Clone: true}
		}
		return Decision{Out: NoOutput, Eject: true}
	}
	vcf := func(node, out, in, cur int) int { return 0 }
	a := New(Config{Node: 0, VCs: 2, Depth: 4, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	b := New(Config{Node: 1, VCs: 2, Depth: 4, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	p := pkt(a, 1, 3, 9)
	for _, f := range p {
		a.Push(0, 0, &f)
	}
	lp := newLinkPair(a, b)
	deliveredAtA := 0
	arrivedAtB := 0
	for cyc := 0; cyc < 10; cyc++ {
		am, _ := lp.Step(false)
		for _, m := range am {
			if m.Deliver {
				deliveredAtA++
			}
			if m.Out == 0 {
				arrivedAtB++
			}
		}
	}
	if b.LaneLen(0, 0) != 3 {
		t.Fatalf("B holds %d flits, want 3", b.LaneLen(0, 0))
	}
	if deliveredAtA != 3 || arrivedAtB != 3 {
		t.Fatalf("clone delivered %d / forwarded %d, want 3/3", deliveredAtA, arrivedAtB)
	}
}

func BenchmarkTwoNodeForwarding(b *testing.B) {
	lp := twoNodeLine(8)
	a, bb := lp.A, lp.B
	p := pkt(a, 1, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Push(0, 0, &p[0])
		a.Push(0, 0, &p[1])
		for a.LaneLen(0, 0) > 0 || bb.LaneLen(0, 0) > 0 {
			lp.Step(true)
		}
	}
}

// BenchmarkRouterHop measures the switch datapath alone, one flit per
// iteration: push into switch A, then one linkPair cycle — both switches
// arbitrate and commit, A's granted copy is pushed into B, and B ejects the
// previous flit and returns its credit, which keeps B's lane drained. It is
// the per-hop cost every simulated flit pays, with no fabric, adapter or
// tracker around it, and it must not allocate (CI guards it).
func BenchmarkRouterHop(b *testing.B) {
	lp := twoNodeLine(4)
	p := pkt(lp.A, 1, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lp.A.Push(0, 0, &p[i&1]) { // header, tail, header, ...
			b.Fatal("push rejected")
		}
		if up, _ := lp.Step(true); len(up) != 1 {
			b.Fatal("flit did not cross the link")
		}
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestCommitDesyncPanics(t *testing.T) {
	for name, corrupt := range map[string]func(*Move){
		"slot":    func(m *Move) { m.Slot++ },    // the lane's next, unwritten slot
		"sibling": func(m *Move) { m.Slot += 4 }, // the sibling lane's head slot
		"empty":   func(m *Move) { m.Lane = 1 },  // sibling lane holds nothing
	} {
		a := twoNodeLine(4).A
		a.Push(0, 0, &pkt(a, 1, 2, 1)[0])
		moves := a.Arbitrate(nil)
		if len(moves) != 1 {
			t.Fatalf("%s: %d moves, want 1", name, len(moves))
		}
		corrupt(&moves[0])
		mustPanic(t, name+": commit of a move that does not match the lane head", func() { a.Commit(moves) })
	}
}

func TestCreditCounterViolationsPanic(t *testing.T) {
	// Overflow: a credit returned to a counter already at the lane depth.
	mustPanic(t, "credit return above depth", func() { twoNodeLine(2).A.ReturnCredit(0, 0) })

	// Underflow: a forged move commits a send the counter cannot cover. The
	// header takes the link's only credit; B never drains, so the body that
	// follows it has none.
	a := twoNodeLine(1).A
	p := pkt(a, 1, 2, 1)
	a.Push(0, 0, &p[0])
	a.Commit(a.Arbitrate(nil))
	if a.Credit(0, 0) != 0 {
		t.Fatalf("credit %d after the header, want 0", a.Credit(0, 0))
	}
	a.Push(0, 0, &p[1])
	if moves := a.Arbitrate(nil); len(moves) != 0 {
		t.Fatal("arbiter granted a send without credit")
	}
	forged := []Move{{In: 0, Lane: 0, Out: 0, OutVC: 0, Slot: int32(a.in[0].lanes[0].headSlot())}}
	mustPanic(t, "commit of a send without credit", func() { a.Commit(forged) })
}

func TestPushReportsFullLane(t *testing.T) {
	a := twoNodeLine(2).A
	p := pkt(a, 1, 3, 1)
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
	route := func(node, in int, h Header, hop int) Decision { return Decision{Out: NoOutput} }
	vcf := func(node, out, in, cur int) int { return 0 }
	r := New(Config{Node: 0, VCs: 2, Depth: 2, InLanes: []int{1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	r.Push(0, 0, &pkt(r, 1, 2, 5)[0])
	defer func() {
		if recover() == nil {
			t.Fatal("route with no action did not panic")
		}
	}()
	r.Arbitrate(nil)
}

// TestVCNextOncePerWaitingHeader: VCNext is pure, so a header waiting at a
// lane head asks it once, beside its cached route, however many cycles it
// stays blocked — and the cached VC is the one it is granted.
func TestVCNextOncePerWaitingHeader(t *testing.T) {
	lp := twoNodeLine(2)
	calls := 0
	vcf := lp.A.cfg.VCNext
	lp.A.cfg.VCNext = func(node, out, in, cur int) int {
		calls++
		return vcf(node, out, in, cur)
	}
	block(t, lp, 0)
	calls = 0
	p := pkt(lp.A, 1, 2, 1)
	lp.A.Push(0, 0, &p[0])
	const blocked = 6
	for cyc := 0; cyc < blocked; cyc++ {
		if am, _ := lp.Step(false); len(am) != 0 {
			t.Fatal("blocked header moved")
		}
	}
	if calls != 1 {
		t.Fatalf("VCNext called %d times for a header blocked %d cycles, want 1", calls, blocked)
	}
	for cyc := 0; cyc < 4; cyc++ {
		am, _ := lp.Step(true)
		if len(am) == 0 {
			continue
		}
		if am[0].OutVC != 0 {
			t.Fatalf("header granted VC %d, VCNext said 0", am[0].OutVC)
		}
		if calls != 1 {
			t.Fatalf("VCNext called %d times by the time the header moved, want 1", calls)
		}
		return
	}
	t.Fatal("header never moved once the downstream lane drained")
}
