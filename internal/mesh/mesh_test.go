package mesh

import (
	"testing"

	"quarc/internal/network"
	"quarc/internal/rng"
	"quarc/internal/topology"
)

func build(t testing.TB, w, h int, torus bool) (*network.Fabric, []*network.BaseAdapter, topology.Mesh) {
	t.Helper()
	fab, as, err := Build(Config{W: w, H: h, Torus: torus, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := topology.NewMesh(w, h, torus)
	return fab, as, m
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
		t.Fatalf("mesh did not drain: %d messages stuck", fab.Tracker.InFlight())
	}
}

// walkedHops is the length of the route s -> d the fabric's switches take.
func walkedHops(fab *network.Fabric, s, d int) int {
	h := 0
	fab.Walk(s, d, func(int, int, int) { h++ })
	return h
}

func TestMeshUnicastZeroLoadLatency(t *testing.T) {
	for _, torus := range []bool{false, true} {
		fab, as, geo := build(t, 4, 4, torus)
		mlen := 8
		for src := 0; src < geo.N(); src++ {
			for dst := 0; dst < geo.N(); dst++ {
				if src == dst {
					continue
				}
				fab, as, geo = build(t, 4, 4, torus)
				var rec *network.MessageRecord
				fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
				as[src].SendUnicast(dst, mlen, fab.Now())
				drain(t, fab, 1000)
				want := int64(walkedHops(fab, src, dst) + mlen)
				if lat := rec.Last - rec.Gen; lat != want {
					t.Fatalf("torus=%v %d->%d: latency %d, want %d", torus, src, dst, lat, want)
				}
			}
		}
		_ = as
	}
}

func TestMeshBroadcastAsUnicasts(t *testing.T) {
	fab, as, geo := build(t, 4, 4, false)
	var rec *network.MessageRecord
	fab.Tracker.OnDone = func(r network.MessageRecord) { rec = &r }
	as[0].SendBroadcast(4, fab.Now())
	drain(t, fab, 100000)
	if rec == nil || rec.Delivered != geo.N()-1 {
		t.Fatalf("broadcast delivered %v", rec)
	}
	if fab.Tracker.Duplicates() != 0 {
		t.Fatal("duplicates")
	}
}

func TestMeshRandomTrafficConservation(t *testing.T) {
	for _, torus := range []bool{false, true} {
		fab, as, geo := build(t, 4, 4, torus)
		r := rng.New(11, 3)
		sent, completed := 0, 0
		fab.Tracker.OnDone = func(network.MessageRecord) { completed++ }
		n := geo.N()
		for cyc := 0; cyc < 1500; cyc++ {
			for s := 0; s < n; s++ {
				if r.Bernoulli(0.02) {
					d := r.Intn(n - 1)
					if d >= s {
						d++
					}
					as[s].SendUnicast(d, 4, fab.Now())
					sent++
				}
			}
			fab.Step()
		}
		drain(t, fab, 300000)
		if completed != sent {
			t.Fatalf("torus=%v: completed %d of %d", torus, completed, sent)
		}
	}
}

func TestMeshBorderLinksUnused(t *testing.T) {
	// Under XY routing on a plain mesh, border outputs must carry nothing
	// (they are wired as sinks; any use would silently drop flits, which
	// conservation tests would catch — here we check the counters directly).
	fab, as, geo := build(t, 3, 3, false)
	for s := 0; s < geo.N(); s++ {
		for d := 0; d < geo.N(); d++ {
			if s != d {
				as[s].SendUnicast(d, 2, fab.Now())
			}
		}
	}
	drain(t, fab, 100000)
	loads := fab.LinkLoad()
	for node := 0; node < geo.N(); node++ {
		x, y := geo.XY(node)
		if x == geo.W-1 && loads[node][East] != 0 {
			t.Errorf("node %d used its east border link", node)
		}
		if x == 0 && loads[node][West] != 0 {
			t.Errorf("node %d used its west border link", node)
		}
		if y == geo.H-1 && loads[node][North] != 0 {
			t.Errorf("node %d used its north border link", node)
		}
		if y == 0 && loads[node][South] != 0 {
			t.Errorf("node %d used its south border link", node)
		}
	}
}

func TestTorusDatelineDeadlockFreedom(t *testing.T) {
	// Saturate a small torus with ring-wrapping traffic; everything must
	// still drain (the dateline VCs break the wraparound cycles).
	fab, as, geo := build(t, 4, 4, true)
	n := geo.N()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				as[s].SendUnicast(d, 8, fab.Now())
			}
		}
	}
	drain(t, fab, 500000)
}

func TestMeshBuildValidation(t *testing.T) {
	if _, _, err := Build(Config{W: 1, H: 4, Depth: 4}); err == nil {
		t.Error("accepted 1-wide mesh")
	}
	if _, _, err := Build(Config{W: 4, H: 4, Depth: 0}); err == nil {
		t.Error("accepted zero depth")
	}
}
