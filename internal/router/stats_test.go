package router

import (
	"testing"
)

func TestGrantAndOccupancyCounters(t *testing.T) {
	lp := twoNodeLine(4)
	p := pkt(lp.A, 1, 4, 1)
	for _, f := range p {
		lp.A.Push(0, 0, &f)
	}
	for cyc := 0; cyc < 12; cyc++ {
		step(lp)
	}
	as, bs := lp.A.Stats(), lp.B.Stats()
	if as.Grants != 4 {
		t.Fatalf("A granted %d flits, want 4", as.Grants)
	}
	if bs.Grants != 4 { // 4 ejections at B
		t.Fatalf("B granted %d flits, want 4", bs.Grants)
	}
	if as.Cycles == 0 || as.MeanOccupancy() <= 0 {
		t.Fatalf("occupancy integral missing: %+v", as)
	}
	if as.TotalStalls() != 0 {
		t.Fatalf("unexpected stalls on an empty line: %+v", as.Stalls)
	}
}

func TestNoCreditStallCounted(t *testing.T) {
	lp := twoNodeLine(2)
	block(t, lp, 0) // B's lane 0 is full, so A has no credit
	if st := lp.A.Stats(); st.Stalls[StallNoCredit] != 0 {
		t.Fatalf("blocker itself stalled: %+v", st.Stalls)
	}
	for _, f := range pkt(lp.A, 1, 3, 1)[:2] {
		lp.A.Push(0, 0, &f)
	}
	lp.Step(false)
	st := lp.A.Stats()
	if st.Stalls[StallNoCredit] == 0 {
		t.Fatalf("no-credit stall not recorded: %+v", st.Stalls)
	}
}

func TestArbLostStallCounted(t *testing.T) {
	// Two inputs race for one output; the loser must record arb-lost.
	route := func(node, in int, h Header, hop int) Decision { return Decision{Out: 0} }
	vcf := func(node, out, in, cur int) int { return in % 2 }
	a := New(Config{Node: 0, VCs: 2, Depth: 8, InLanes: []int{1, 1}, NOut: 1,
		EjectPort: NoOutput, Route: route, VCNext: vcf})
	sink := New(Config{Node: 1, VCs: 2, Depth: 64, InLanes: []int{2}, NOut: 1,
		EjectPort: NoOutput,
		Route:     func(node, in int, h Header, hop int) Decision { return Decision{Out: NoOutput, Eject: true} },
		VCNext:    vcf})
	for _, f := range pkt(a, 1, 4, 9) {
		a.Push(0, 0, &f)
	}
	for _, f := range pkt(a, 2, 4, 9) {
		a.Push(1, 0, &f)
	}
	moves, _ := newLinkPair(a, sink).Step(false)
	if len(moves) != 1 {
		t.Fatalf("granted %d moves, want 1 (single output)", len(moves))
	}
	if a.Stats().Stalls[StallArbLost] != 1 {
		t.Fatalf("arb-lost not recorded: %+v", a.Stats().Stalls)
	}
}

func TestVCBusyStallCounted(t *testing.T) {
	// Packet A holds downstream VC 0; packet B in the other lane also needs
	// VC 0 (same VCNext) and must stall with vc-busy.
	route := func(node, in int, h Header, hop int) Decision {
		if node == 1 {
			return Decision{Out: NoOutput, Eject: true}
		}
		return Decision{Out: 0}
	}
	vcf := func(node, out, in, cur int) int { return 0 } // everyone wants VC 0
	mk := func(id int) *Router {
		return New(Config{Node: id, VCs: 2, Depth: 8, InLanes: []int{2}, NOut: 1,
			EjectPort: NoOutput, Route: route, VCNext: vcf})
	}
	a, b := mk(0), mk(1)
	// Only the header of packet 1: it allocates VC 0 and then its lane runs
	// dry (upstream starvation), so the arbiter switches to lane 1, whose
	// header finds VC 0 held by the unfinished packet.
	a.Push(0, 0, &pkt(a, 1, 6, 1)[0])
	for _, f := range pkt(a, 2, 6, 1) {
		a.Push(0, 1, &f)
	}
	lp := newLinkPair(a, b)
	sawVCBusy := false
	for cyc := 0; cyc < 20; cyc++ {
		lp.Step(true)
		if a.Stats().Stalls[StallVCBusy] > 0 {
			sawVCBusy = true
		}
	}
	if !sawVCBusy {
		t.Fatal("vc-busy stall never recorded")
	}
}

func TestStallCauseStrings(t *testing.T) {
	if StallNoCredit.String() != "no-credit" || StallVCBusy.String() != "vc-busy" ||
		StallArbLost.String() != "arb-lost" || StallCause(9).String() == "" {
		t.Fatal("stall cause strings wrong")
	}
}
