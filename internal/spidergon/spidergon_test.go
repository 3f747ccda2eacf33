package spidergon

import (
	"testing"
	"testing/quick"

	"quarc/internal/network"
	"quarc/internal/rng"
)

func build(t testing.TB, n int) (*network.Fabric, []*Adapter) {
	t.Helper()
	fab, as, err := Build(Config{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fab, as
}

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

// walkedHops is the length of the route s -> d the fabric's switches take.
func walkedHops(fab *network.Fabric, s, d int) int {
	h := 0
	fab.Walk(s, d, func(int, int, int) { h++ })
	return h
}

func TestUnicastZeroLoadLatency(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		for dst := 1; dst < n; dst++ {
			fab, as := build(t, n)
			var rec *network.MessageRecord
			fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
			m := 8
			as[0].SendUnicast(dst, m, fab.Now())
			drain(t, fab, 1000)
			if rec == nil {
				t.Fatalf("n=%d dst=%d: no completion", n, dst)
			}
			want := int64(walkedHops(fab, 0, dst) + m)
			if lat := rec.Last - rec.Gen; lat != want {
				t.Errorf("n=%d dst=%d: latency %d, want hops+M = %d", n, dst, lat, want)
			}
		}
	}
}

func TestBroadcastByUnicastCoverage(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		fab, as := build(t, n)
		var rec *network.MessageRecord
		fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
		m := 8
		as[0].SendBroadcast(m, fab.Now())
		drain(t, fab, 100000)
		if rec == nil {
			t.Fatalf("n=%d: broadcast incomplete", n)
		}
		if rec.Delivered != n-1 {
			t.Errorf("n=%d: delivered %d, want %d", n, rec.Delivered, n-1)
		}
		if fab.Tracker.Duplicates() != 0 {
			t.Errorf("n=%d: duplicates", n)
		}
	}
}

func TestBroadcastChainLatencyIsStoreAndForward(t *testing.T) {
	// The longest chain covers ceil((n-1)/2) nodes sequentially; each link
	// is a full store-and-forward packet time (m flits + 1 hop + 1 eject
	// cycle). Completion must be roughly (n/2)(m+2): dramatically worse
	// than the Quarc's n/4+m.
	n, m := 16, 16
	fab, as := build(t, n)
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	as[0].SendBroadcast(m, fab.Now())
	drain(t, fab, 100000)
	lat := rec.Last - rec.Gen
	chainLen := (n - 1 + 1) / 2        // 8
	lower := int64(chainLen * m)       // can't beat m cycles per store-and-forward stage
	upper := int64(chainLen*(m+4) + n) // generous overhead bound
	if lat < lower || lat > upper {
		t.Errorf("chain broadcast latency %d outside [%d, %d]", lat, lower, upper)
	}
}

func TestConcurrentBroadcasts(t *testing.T) {
	n, m := 16, 4
	fab, as := build(t, n)
	done := 0
	fab.Tracker.OnDone = func(network.MessageRecord) { done++ }
	for s := 0; s < n; s++ {
		as[s].SendBroadcast(m, fab.Now())
	}
	drain(t, fab, 200000)
	if done != n {
		t.Fatalf("completed %d broadcasts, want %d", done, n)
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatal("duplicate deliveries")
	}
}

func TestRandomTrafficConservation(t *testing.T) {
	n, m := 16, 4
	fab, as := build(t, n)
	r := rng.New(5, 0)
	completed, sent := 0, 0
	fab.Tracker.OnDone = func(network.MessageRecord) { completed++ }
	for cyc := 0; cyc < 2000; cyc++ {
		for s := 0; s < n; s++ {
			if r.Bernoulli(0.01) {
				if r.Bernoulli(0.1) {
					as[s].SendBroadcast(m, fab.Now())
				} else {
					d := r.Intn(n - 1)
					if d >= s {
						d++
					}
					as[s].SendUnicast(d, m, fab.Now())
				}
				sent++
			}
		}
		fab.Step()
	}
	drain(t, fab, 500000)
	if completed != sent {
		t.Fatalf("completed %d of %d", completed, sent)
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatal("duplicates")
	}
}

func TestCrossLinkCarriesHalfTheFlows(t *testing.T) {
	// Paper §2.1: a node's two rim links serve half of the destinations
	// (n/4 each) while the single cross link serves all the rest, so almost
	// half of every node's flows squeeze through one first-hop channel.
	// Under all-pairs traffic with m=2 flits that is exactly (n/2 - 1)
	// packets = 14 flits on each cross link for n=16, which the Quarc
	// splits over two physical channels (8 + 6). The per-node loads must
	// also be uniform (vertex symmetry).
	n, m := 16, 2
	fab, as := build(t, n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				as[s].SendUnicast(d, m, fab.Now())
			}
		}
	}
	drain(t, fab, 100000)
	loads := fab.LinkLoad()
	wantCross := uint64((n/2 - 1) * m) // 7 packets * 2 flits
	if loads[0][CrossOut] != wantCross {
		t.Errorf("cross link load %d, want %d", loads[0][CrossOut], wantCross)
	}
	// First-hop flow counts: cross serves n/2-1 = 7 flows per node, each
	// rim direction only n/4 = 4 of the node's own flows; the cross channel
	// is the injection bottleneck the Quarc removes by doubling it.
	crossFlows := n/2 - 1
	rimOwnFlows := n / 4
	if crossFlows < 2*rimOwnFlows-1 {
		t.Fatalf("flow arithmetic wrong: cross %d vs rim %d", crossFlows, rimOwnFlows)
	}
	for node := 1; node < n; node++ {
		for out := 0; out < 3; out++ {
			if loads[node][out] != loads[0][out] {
				t.Fatalf("output %d load differs between nodes %d and 0", out, node)
			}
		}
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// A message to a hot destination at the queue head delays an unrelated
	// message behind it (one-port router). Construct: node 0 sends to dst A
	// whose path is congested, then to B on a free path; B's completion
	// must wait for A to clear the injection channel.
	n, m := 16, 8
	fab, as := build(t, n)
	var times []int64
	fab.Tracker.OnDone = func(r network.MessageRecord) { times = append(times, r.Last) }
	// Congest the CW rim out of node 0 by having node 15 stream through it.
	as[15].SendUnicast(4, 4*m, fab.Now())
	fab.Step()
	fab.Step()
	as[0].SendUnicast(1, m, fab.Now())  // CW: blocked behind 15's stream
	as[0].SendUnicast(15, m, fab.Now()) // CCW: free, but queued second
	drain(t, fab, 100000)
	if len(times) != 3 {
		t.Fatalf("expected 3 completions, got %d", len(times))
	}
	// The CCW message (node 15, free path) must still finish after the
	// blocked CW message entered the network — i.e. its latency exceeds the
	// zero-load value because of HOL blocking.
	zeroLoad := int64(walkedHops(fab, 0, 15) + m)
	last := times[len(times)-1]
	if last <= zeroLoad+2 {
		t.Errorf("no head-of-line blocking observed: last completion %d vs zero-load %d",
			last, zeroLoad)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, _, err := Build(Config{N: 10, Depth: 4}); err == nil {
		t.Error("accepted n=10")
	}
	if _, _, err := Build(Config{N: 16, Depth: 0}); err == nil {
		t.Error("accepted zero depth")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		n, m := 16, 4
		fab, as := build(t, n)
		r := rng.New(31, 2)
		for cyc := 0; cyc < 400; cyc++ {
			for s := 0; s < n; s++ {
				if r.Bernoulli(0.02) {
					d := r.Intn(n - 1)
					if d >= s {
						d++
					}
					as[s].SendUnicast(d, m, fab.Now())
				}
			}
			fab.Step()
		}
		return fab.FlitsForwarded(), fab.FlitsDelivered()
	}
	f1, d1 := run()
	f2, d2 := run()
	if f1 != f2 || d1 != d2 {
		t.Fatalf("not deterministic: (%d,%d) vs (%d,%d)", f1, d1, f2, d2)
	}
}

// Property: spidergon conservation under random mixed traffic for any ring
// size, including the chain re-injection machinery.
func TestConservationProperty(t *testing.T) {
	check := func(sizeSel, seed uint8, nMsgs uint8) bool {
		sizes := []int{8, 12, 16, 24}
		n := sizes[int(sizeSel)%len(sizes)]
		fab, as, err := Build(Config{N: n, Depth: 2})
		if err != nil {
			return false
		}
		r := rng.New(uint64(seed)+1, 56)
		m := 2 + r.Intn(4)
		want := uint64(0)
		msgs := int(nMsgs)%12 + 1
		for i := 0; i < msgs; i++ {
			s := r.Intn(n)
			if r.Bernoulli(0.3) {
				as[s].SendBroadcast(m, fab.Now())
				want += uint64((n - 1) * m)
			} else {
				d := r.Intn(n - 1)
				if d >= s {
					d++
				}
				as[s].SendUnicast(d, m, fab.Now())
				want += uint64(m)
			}
			for c := 0; c < r.Intn(4); c++ {
				fab.Step()
			}
		}
		for i := 0; i < 300000 && fab.Tracker.InFlight() > 0; i++ {
			fab.Step()
		}
		return fab.Tracker.InFlight() == 0 &&
			fab.Tracker.Duplicates() == 0 &&
			fab.FlitsDelivered() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
