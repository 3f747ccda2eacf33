package quarc

import (
	"testing"
	"testing/quick"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/rng"
	"quarc/internal/router"
	"quarc/internal/topology"
)

func build(t testing.TB, n int) (*network.Fabric, []*Transceiver) {
	t.Helper()
	fab, ts, err := Build(Config{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fab, ts
}

// drain steps until all messages complete or the budget runs out.
func drain(t testing.TB, fab *network.Fabric, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		if fab.Tracker.InFlight() == 0 {
			return
		}
		fab.Step()
	}
	if fab.Tracker.InFlight() != 0 {
		t.Fatalf("network did not drain: %d messages stuck after %d cycles",
			fab.Tracker.InFlight(), budget)
	}
}

func TestUnicastZeroLoadLatency(t *testing.T) {
	// At zero load, tail delivery happens exactly hops+M cycles after
	// generation: one cycle per link (pipelined), one flit injected per
	// cycle, ejection the cycle after arrival.
	for _, n := range []int{8, 16, 32, 64} {
		for dst := 1; dst < n; dst++ {
			fab, ts := build(t, n)
			var got *network.MessageRecord
			fab.Tracker.OnDone = func(r network.MessageRecord) { got = &r }
			m := 8
			ts[0].SendUnicast(dst, m, fab.Now())
			drain(t, fab, 1000)
			if got == nil {
				t.Fatalf("n=%d dst=%d: no completion", n, dst)
			}
			want := int64(topology.QuarcHops(n, 0, dst) + m)
			if lat := got.Last - got.Gen; lat != want {
				t.Errorf("n=%d dst=%d: latency %d, want hops+M = %d", n, dst, lat, want)
			}
		}
	}
}

func TestBroadcastReachesAllExactlyOnce(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		fab, ts := build(t, n)
		var got *network.MessageRecord
		fab.Tracker.OnDone = func(r network.MessageRecord) { got = &r }
		m := 8
		ts[3%n].SendBroadcast(m, fab.Now())
		drain(t, fab, 5000)
		if got == nil {
			t.Fatalf("n=%d: broadcast incomplete", n)
		}
		if got.Delivered != n-1 {
			t.Errorf("n=%d: delivered to %d nodes, want %d", n, got.Delivered, n-1)
		}
		if d := fab.Tracker.Duplicates(); d != 0 {
			t.Errorf("n=%d: %d duplicate deliveries", n, d)
		}
		// True wormhole broadcast completes in diameter + M cycles.
		want := int64(n/4 + m)
		if lat := got.Last - got.Gen; lat != want {
			t.Errorf("n=%d: broadcast completion latency %d, want %d", n, lat, want)
		}
	}
}

func TestBroadcastCompletionMatchesFig6(t *testing.T) {
	// 16 nodes, source 0: branch last nodes 4, 5, 11, 12 (paper Fig 6).
	// Every node must get the tail at exactly hops(node)+M.
	n, m := 16, 4
	fab, ts := build(t, n)
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	ts[0].SendBroadcast(m, fab.Now())
	drain(t, fab, 1000)
	if rec == nil {
		t.Fatal("no completion")
	}
	// Expected delivery cycle of node d is quarcHops(0,d)+m; completion is
	// the max (= n/4+m); the mean delivery time must match the exact mean of
	// hops+m over all destinations.
	sum := int64(0)
	for d := 1; d < n; d++ {
		sum += int64(topology.QuarcHops(n, 0, d) + m)
	}
	if rec.DeliSum != sum {
		t.Errorf("sum of delivery cycles = %d, want %d", rec.DeliSum, sum)
	}
	if rec.First != int64(1+m) {
		t.Errorf("first delivery at %d, want %d", rec.First, 1+m)
	}
}

func TestMulticastDeliversOnlyToTargets(t *testing.T) {
	n, m := 16, 4
	fab, ts := build(t, n)
	targets := []int{2, 5, 8, 11, 14}
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	ts[0].SendMulticast(targets, m, fab.Now())
	drain(t, fab, 1000)
	if rec == nil {
		t.Fatal("multicast incomplete")
	}
	if rec.Delivered != len(targets) {
		t.Errorf("delivered %d, want %d", rec.Delivered, len(targets))
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Error("duplicate multicast delivery")
	}
	if fab.FlitsDelivered() != uint64(len(targets)*m) {
		t.Errorf("PEs received %d flits, want %d", fab.FlitsDelivered(), len(targets)*m)
	}
}

func TestMulticastSingleTargetBehavesLikeUnicast(t *testing.T) {
	n, m := 16, 6
	fab, ts := build(t, n)
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	ts[0].SendMulticast([]int{7}, m, fab.Now())
	drain(t, fab, 1000)
	want := int64(topology.QuarcHops(n, 0, 7) + m)
	if rec == nil || rec.Last-rec.Gen != want {
		t.Fatalf("latency = %v, want %d", rec, want)
	}
}

func TestConcurrentBroadcastsAllComplete(t *testing.T) {
	// Every node broadcasts simultaneously: the BRCP discipline must stay
	// deadlock-free and deliver (n-1) copies per message.
	n, m := 16, 8
	fab, ts := build(t, n)
	done := 0
	fab.Tracker.OnDone = func(r network.MessageRecord) { done++ }
	for s := 0; s < n; s++ {
		ts[s].SendBroadcast(m, fab.Now())
	}
	drain(t, fab, 20000)
	if done != n {
		t.Fatalf("completed %d broadcasts, want %d", done, n)
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatal("duplicate deliveries under concurrent broadcast")
	}
}

func TestRandomTrafficConservation(t *testing.T) {
	// Mixed random unicast/broadcast load: every message completes, nothing
	// is duplicated or lost, flits delivered match exactly.
	n, m := 16, 4
	fab, ts := build(t, n)
	r := rng.New(7, 0)
	completed := 0
	fab.Tracker.OnDone = func(network.MessageRecord) { completed++ }
	sent := 0
	wantFlits := uint64(0)
	for cyc := 0; cyc < 2000; cyc++ {
		for s := 0; s < n; s++ {
			if r.Bernoulli(0.02) {
				if r.Bernoulli(0.2) {
					ts[s].SendBroadcast(m, fab.Now())
					wantFlits += uint64((n - 1) * m)
				} else {
					d := r.Intn(n - 1)
					if d >= s {
						d++
					}
					ts[s].SendUnicast(d, m, fab.Now())
					wantFlits += uint64(m)
				}
				sent++
			}
		}
		fab.Step()
	}
	drain(t, fab, 200000)
	if completed != sent {
		t.Fatalf("completed %d of %d messages", completed, sent)
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatalf("%d duplicate deliveries", fab.Tracker.Duplicates())
	}
	if fab.FlitsDelivered() != wantFlits {
		t.Fatalf("delivered %d flits, want %d", fab.FlitsDelivered(), wantFlits)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int64) {
		n, m := 16, 4
		fab, ts := build(t, n)
		r := rng.New(99, 1)
		var lastDone int64
		fab.Tracker.OnDone = func(rec network.MessageRecord) { lastDone = rec.Last }
		for cyc := 0; cyc < 500; cyc++ {
			for s := 0; s < n; s++ {
				if r.Bernoulli(0.03) {
					d := r.Intn(n - 1)
					if d >= s {
						d++
					}
					ts[s].SendUnicast(d, m, fab.Now())
				}
			}
			fab.Step()
		}
		return fab.FlitsForwarded(), fab.FlitsDelivered(), lastDone
	}
	f1, d1, l1 := run()
	f2, d2, l2 := run()
	if f1 != f2 || d1 != d2 || l1 != l2 {
		t.Fatalf("simulation not deterministic: (%d,%d,%d) vs (%d,%d,%d)", f1, d1, l1, f2, d2, l2)
	}
}

func TestEdgeSymmetricLinkLoads(t *testing.T) {
	// Uniform traffic must load all rim links equally and all cross links
	// equally (the Quarc's edge symmetry, §2.2). Send one unicast from every
	// node to every destination and compare link counters.
	n, m := 16, 2
	fab, ts := build(t, n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				ts[s].SendUnicast(d, m, fab.Now())
			}
		}
	}
	drain(t, fab, 100000)
	loads := fab.LinkLoad()
	for _, out := range []int{RimCWOut, RimCCWOut, CrossCWOut, CrossCCWOut} {
		for node := 1; node < n; node++ {
			if loads[node][out] != loads[0][out] {
				t.Fatalf("output %d load differs: node %d has %d, node 0 has %d",
					out, node, loads[node][out], loads[0][out])
			}
		}
	}
	// Rim links carry the quarter-arc traffic in both directions equally.
	if loads[0][RimCWOut] != loads[0][RimCCWOut] {
		t.Errorf("rim CW load %d != rim CCW load %d", loads[0][RimCWOut], loads[0][RimCCWOut])
	}
	if loads[0][CrossCWOut] != loads[0][CrossCCWOut]+1 {
		// Cross-CCW serves n/4 destinations, cross-CW n/4-1; with m flits
		// per packet the difference is exactly m... check both are within
		// one packet of each other instead of exact equality.
		diff := int64(loads[0][CrossCWOut]) - int64(loads[0][CrossCCWOut])
		if diff > int64(m) || diff < -int64(m) {
			t.Errorf("cross loads unbalanced: %d vs %d", loads[0][CrossCWOut], loads[0][CrossCCWOut])
		}
	}
}

func TestChainBroadcastAblation(t *testing.T) {
	// With ChainBroadcast the completion latency collapses to the
	// Spidergon-style store-and-forward chain: about (n/2)*(m+hops).
	n, m := 16, 8
	fab, ts, err := Build(Config{N: n, Depth: 4, ChainBroadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	ts[0].SendBroadcast(m, fab.Now())
	for i := 0; i < 100000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if rec == nil {
		t.Fatal("chain broadcast incomplete")
	}
	if rec.Delivered != n-1 {
		t.Fatalf("delivered %d, want %d", rec.Delivered, n-1)
	}
	chainLat := rec.Last - rec.Gen
	trueLat := int64(n/4 + m)
	if chainLat < 4*trueLat {
		t.Errorf("chain broadcast latency %d not dramatically worse than true broadcast %d",
			chainLat, trueLat)
	}
}

func TestSingleQueueAblationStillCorrect(t *testing.T) {
	n, m := 16, 4
	fab, ts, err := Build(Config{N: n, Depth: 4, SingleQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	fab.Tracker.OnDone = func(network.MessageRecord) { completed++ }
	for d := 1; d < n; d++ {
		ts[0].SendUnicast(d, m, fab.Now())
	}
	ts[0].SendBroadcast(m, fab.Now())
	for i := 0; i < 100000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if completed != n {
		t.Fatalf("completed %d messages, want %d", completed, n)
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatal("duplicates under single-queue ablation")
	}
}

// materialise forms the whole flit that slot s of the packet whose header
// record is *h stands for: the record with the multicast bitstring shifted by
// the slot's hops, the slot's kind and index, and the index as the data word,
// as flit.AppendPacket lays a packet out. It is the tests' bridge to that
// oracle; the simulator itself never forms a flit.Flit.
func materialise(h *router.Header, s router.Slot) flit.Flit {
	return flit.Flit{
		Kind: s.Kind, Traffic: h.Traffic, ChainCCW: h.ChainCCW, Payload: uint32(s.Seq),
		Src: int(h.Src), Dst: int(h.Dst), Seq: int(s.Seq), PktLen: int(h.PktLen), Remain: int(h.Remain),
		PktID: h.PktID, MsgID: h.MsgID, Bits: h.Bits >> s.Hop, Gen: h.Gen,
	}
}

// TestSingleQueueStreamsAppendPacketFlits holds the single-queue ablation —
// one port-tagged source queue instead of four — to the flits
// flit.AppendPacket expands: under random interleavings of PE enqueues,
// switch-priority front enqueues and injections, the one queue's slots,
// materialised with their header records, must be every packet's
// flits field for field, through its own quadrant's port, front enqueues
// never ahead of a packet already streaming, with an exact backlog. A
// packet's handle is freed once its tail has left the queue, so later
// packets reuse handles as they do when the fabric delivers.
func TestSingleQueueStreamsAppendPacketFlits(t *testing.T) {
	_, ts, err := Build(Config{N: 16, Depth: 4, SingleQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := ts[0]
	if len(tr.Queues) != 1 {
		t.Fatalf("single-queue transceiver has %d source queues", len(tr.Queues))
	}
	type expanded struct {
		flits []flit.Flit
		port  int
	}
	var want []expanded // the queue as pre-expanded packets, front first
	pos := 0            // next flit of want[0]
	pkts := uint64(0)   // packet ids the fabric has handed out
	r := rng.New(11, 0)
	for op := 0; op < 20000; op++ {
		if len(want) == 0 || r.Intn(3) == 0 {
			h := router.Header{
				Traffic: flit.Traffic(r.Intn(4)), Src: 0, Dst: int32(1 + r.Intn(15)), Remain: int32(r.Intn(8)),
				MsgID: uint64(op), Bits: uint64(r.Intn(1 << 16)), Gen: int64(op),
			}
			length := 2 + r.Intn(7)
			pkts++
			stamped := h
			stamped.PktID = pkts
			e := expanded{flit.Packet(materialise(&stamped, router.Slot{}), length),
				injPortFor(topology.QuadrantOf(16, 0, int(h.Dst)))}
			if r.Intn(4) == 0 {
				tr.EnqueueFront(&h, length)
				at := 0
				if pos > 0 {
					at = 1
				}
				want = append(want[:at], append([]expanded{e}, want[at:]...)...)
			} else {
				tr.Enqueue(&h, length)
				want = append(want, e)
			}
		} else {
			if s, _ := tr.Queues[0].NextFlit(); s.Kind == flit.Tail {
				tr.Fab.Packets.Free(s.Pkt)
			}
			tr.Queues[0].Advance()
			if pos++; pos == len(want[0].flits) {
				want, pos = want[1:], 0
			}
		}
		backlog := -pos
		for _, e := range want {
			backlog += len(e.flits)
		}
		if tr.Backlog() != backlog {
			t.Fatalf("op %d: backlog %d, want %d", op, tr.Backlog(), backlog)
		}
		f, port := tr.Queues[0].NextFlit()
		if len(want) == 0 {
			if f != nil {
				t.Fatalf("op %d: flit offered by a queue that should be empty", op)
			}
			continue
		}
		if f == nil || materialise(tr.Fab.Packets.Header(f), *f) != want[0].flits[pos] || port != want[0].port {
			t.Fatalf("op %d: next flit %+v port %d\nwant %+v port %d", op, f, port, want[0].flits[pos], want[0].port)
		}
	}
	if live := tr.Fab.Packets.Live(); live != tr.Queues[0].Packets() {
		t.Fatalf("%d packets live in the table, %d queued", live, tr.Queues[0].Packets())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, _, err := Build(Config{N: 10, Depth: 4}); err == nil {
		t.Error("accepted n=10")
	}
	if _, _, err := Build(Config{N: 16, Depth: 0}); err == nil {
		t.Error("accepted zero depth")
	}
	if _, _, err := Build(Config{N: 128, Depth: 4}); err == nil {
		t.Error("accepted n=128")
	}
}

func TestUnicastToSelfPanics(t *testing.T) {
	_, ts := build(t, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("unicast to self accepted")
		}
	}()
	ts[0].SendUnicast(0, 4, 0)
}

func TestLargeNetworkMulticast(t *testing.T) {
	// N=64 is the largest network the single-flit header supports (§2.6).
	// A scattered multicast across all four quadrants must deliver exactly
	// once per target with branch bitstrings up to 16 hops deep.
	n, m := 64, 8
	fab, ts := build(t, n)
	targets := []int{1, 15, 16, 17, 31, 32, 33, 47, 48, 63}
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	ts[0].SendMulticast(targets, m, fab.Now())
	drain(t, fab, 10000)
	if rec == nil || rec.Delivered != len(targets) {
		t.Fatalf("delivered %+v, want %d targets", rec, len(targets))
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatal("duplicates on 64-node multicast")
	}
	// Completion = max over targets of hops+m.
	want := int64(0)
	for _, d := range targets {
		if h := int64(topology.QuarcHops(n, 0, d) + m); h > want {
			want = h
		}
	}
	if lat := rec.Last - rec.Gen; lat != want {
		t.Errorf("completion latency %d, want %d", lat, want)
	}
}

func TestInjectionRateIsOneFlitPerPortPerCycle(t *testing.T) {
	// The transceiver feeds at most one flit per injection port per cycle,
	// so four branch packets launch in parallel but each serialises at M
	// cycles (visible as FlitsForwarded growth of at most 4 per cycle from
	// a single node).
	n, m := 16, 8
	fab, ts := build(t, n)
	ts[0].SendBroadcast(m, fab.Now())
	// For a single broadcast from node 0, node 0's four output links carry
	// only its own injected flits (no branch re-crosses its source), so the
	// per-cycle growth of node 0's link counters is exactly the injection
	// rate: at most one flit per port per cycle.
	prev := make([]uint64, 4)
	for i := 0; i < 60 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
		loads := fab.LinkLoad()
		for out := 0; out < 4; out++ {
			delta := loads[0][out] - prev[out]
			prev[out] = loads[0][out]
			if delta > 1 {
				t.Fatalf("cycle %d: output %d sent %d flits in one cycle", i, out, delta)
			}
		}
	}
	// And the whole broadcast still finishes, i.e. the four ports really do
	// inject in parallel.
	if fab.Tracker.InFlight() != 0 {
		t.Fatal("broadcast did not finish")
	}
}

// Property: for any ring size and any random message set, every message
// completes, flit conservation holds, and no duplicates occur.
func TestConservationProperty(t *testing.T) {
	check := func(sizeSel, seed uint8, nMsgs uint8) bool {
		sizes := []int{8, 12, 16, 24, 32}
		n := sizes[int(sizeSel)%len(sizes)]
		fab, ts, err := Build(Config{N: n, Depth: 2})
		if err != nil {
			return false
		}
		r := rng.New(uint64(seed)+1, 55)
		m := 2 + r.Intn(6)
		want := uint64(0)
		msgs := int(nMsgs)%20 + 1
		for i := 0; i < msgs; i++ {
			s := r.Intn(n)
			if r.Bernoulli(0.3) {
				ts[s].SendBroadcast(m, fab.Now())
				want += uint64((n - 1) * m)
			} else {
				d := r.Intn(n - 1)
				if d >= s {
					d++
				}
				ts[s].SendUnicast(d, m, fab.Now())
				want += uint64(m)
			}
			// Interleave some cycles so injections overlap.
			for c := 0; c < r.Intn(4); c++ {
				fab.Step()
			}
		}
		for i := 0; i < 100000 && fab.Tracker.InFlight() > 0; i++ {
			fab.Step()
		}
		return fab.Tracker.InFlight() == 0 &&
			fab.Tracker.Duplicates() == 0 &&
			fab.FlitsDelivered() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
