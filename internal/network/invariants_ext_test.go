package network_test

// Fabric-level invariant stress tests: run every topology under heavy mixed
// traffic with the wormhole invariant checker active on every cycle. These
// are the tests that would have caught the classic NoC simulator bugs
// (interleaved packets on one VC, credit violations, silent deadlock) as
// attributable single-cycle failures.

import (
	"strings"
	"testing"

	"quarc/internal/flit"
	"quarc/internal/mesh"
	"quarc/internal/network"
	"quarc/internal/quarc"
	"quarc/internal/rng"
	"quarc/internal/router"
	"quarc/internal/spidergon"
	"quarc/internal/traffic"
)

type fabricUnderTest struct {
	name    string
	fab     *network.Fabric
	senders []traffic.Sender
}

func buildAll(t *testing.T, n int) []fabricUnderTest {
	t.Helper()
	var out []fabricUnderTest

	qf, qt, err := quarc.Build(quarc.Config{N: n, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]traffic.Sender, n)
	for i, a := range qt {
		qs[i] = a
	}
	out = append(out, fabricUnderTest{"quarc", qf, qs})

	sf, sa, err := spidergon.Build(spidergon.Config{N: n, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ss := make([]traffic.Sender, n)
	for i, a := range sa {
		ss[i] = a
	}
	out = append(out, fabricUnderTest{"spidergon", sf, ss})

	side := 4
	mf, ma, err := mesh.Build(mesh.Config{W: side, H: side, Torus: true, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]traffic.Sender, side*side)
	for i, a := range ma {
		ms[i] = a
	}
	out = append(out, fabricUnderTest{"torus", mf, ms})
	return out
}

func TestInvariantsUnderHeavyMixedTraffic(t *testing.T) {
	const n = 16
	for _, fut := range buildAll(t, n) {
		fut := fut
		t.Run(fut.name, func(t *testing.T) {
			chk := network.NewInvariantChecker(fut.fab)
			r := rng.New(1234, 77)
			// Offered load well past saturation: queues grow, the checker
			// must still see forward progress and clean lanes every cycle.
			for cyc := 0; cyc < 1200; cyc++ {
				for s := 0; s < n; s++ {
					if r.Bernoulli(0.10) {
						if r.Bernoulli(0.25) {
							fut.senders[s].SendBroadcast(6, fut.fab.Now())
						} else {
							d := r.Intn(n - 1)
							if d >= s {
								d++
							}
							fut.senders[s].SendUnicast(d, 6, fut.fab.Now())
						}
					}
				}
				if err := chk.StepChecked(); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
			}
			// Drain with the checker still armed (tests the progress
			// invariant: the dateline discipline must clear the backlog).
			for i := 0; i < 500000 && fut.fab.Tracker.InFlight() > 0; i++ {
				if err := chk.StepChecked(); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
			if fut.fab.Tracker.InFlight() != 0 {
				t.Fatalf("%d messages stuck after drain", fut.fab.Tracker.InFlight())
			}
			if fut.fab.Tracker.Duplicates() != 0 {
				t.Fatalf("%d duplicate deliveries", fut.fab.Tracker.Duplicates())
			}
		})
	}
}

func TestLaneStreamValidatorCatchesCorruption(t *testing.T) {
	// White-box: hand the checker a fabric whose lane we corrupt through
	// the public Push surface — an out-of-order body flit must be flagged.
	fab, ts, err := quarc.Build(quarc.Config{N: 8, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = ts
	chk := network.NewInvariantChecker(fab)
	// Push a header then a body with a skipped sequence number into a
	// network input lane, bypassing the link layer.
	h := fab.Packets.Add(&router.Header{Traffic: flit.Unicast, Src: 1, Dst: 3, PktID: 9}, 4)
	b := h
	b.Kind = flit.Body
	b.Seq = 2 // skipped 1
	fab.Routers[2].Push(0, 0, &h)
	fab.Routers[2].Push(0, 0, &b)
	if err := chk.Check(); err == nil {
		t.Fatal("checker accepted an out-of-order lane stream")
	}
}

func TestCreditConservationCatchesStrayFlit(t *testing.T) {
	// A well-formed flit that reaches a network lane without its sender
	// spending a credit (pushed here behind the link layer's back) leaves the
	// link with credit + buffered == depth + 1: I5 must name it.
	fab, _, err := quarc.Build(quarc.Config{N: 8, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	chk := network.NewInvariantChecker(fab)
	if err := chk.Check(); err != nil {
		t.Fatalf("fresh fabric: %v", err)
	}
	h := fab.Packets.Add(&router.Header{Traffic: flit.Unicast, Src: 1, Dst: 3, PktID: 9}, 4)
	fab.Routers[2].Push(0, 0, &h)
	if err := chk.Check(); err == nil || !strings.Contains(err.Error(), "credit") {
		t.Fatalf("stray flit not reported as a credit violation: %v", err)
	}
}

func TestProgressDetectorFiresOnStuckFabric(t *testing.T) {
	// Register a message with the tracker but never inject its flits: the
	// fabric shows in-flight work with no movement, which must trip the
	// progress horizon.
	fab, _, err := quarc.Build(quarc.Config{N: 8, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	fab.Tracker.Register(1, network.ClassUnicast, 0, 0, 1)
	chk := network.NewInvariantChecker(fab)
	chk.Horizon = 50
	var got error
	for i := 0; i < 200; i++ {
		if got = chk.StepChecked(); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("progress detector never fired")
	}
	// The error must be sticky.
	if chk.Err() == nil || chk.Check() == nil {
		t.Fatal("checker error not sticky")
	}
}
