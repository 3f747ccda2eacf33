package topology_test

import (
	"testing"

	"quarc/internal/cdg"
	"quarc/internal/model"
	_ "quarc/internal/models"
	"quarc/internal/topology"
)

// The paper's route properties, checked on the routes the simulator takes:
// each model's own injection rule, RouteFunc, VCFunc and wiring, walked by
// model.Routes.

var walkSizes = []int{8, 12, 16, 20, 24, 32, 36, 48, 64}

// route is one walked unicast route: the nodes it visits, source first and
// destination last, and the VC it holds on each link.
type route struct{ nodes, vcs []int }

func (r route) hops() int { return len(r.vcs) }

// walked returns the named model's n-node routes; s != d.
func walked(t *testing.T, name string, n int) func(s, d int) route {
	t.Helper()
	fab, err := model.Routes(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return func(s, d int) route {
		var r route
		fab.Walk(s, d, func(node, _, vc int) {
			r.nodes = append(r.nodes, node)
			r.vcs = append(r.vcs, vc)
		})
		r.nodes = append(r.nodes, d)
		return r
	}
}

// stats returns the diameter and mean hop count of a model's routes.
func stats(t *testing.T, name string, n int) (diameter int, avg float64) {
	walk, sum := walked(t, name, n), 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				h := walk(s, d).hops()
				sum += h
				diameter = max(diameter, h)
			}
		}
	}
	return diameter, float64(sum) / float64(n*(n-1))
}

// checkRingSteps requires every step of r, from s to d, to be a rim hop or a
// cross first hop.
func checkRingSteps(t *testing.T, name string, n, s, d int, r route) {
	t.Helper()
	if r.nodes[0] != s || r.nodes[len(r.nodes)-1] != d {
		t.Fatalf("%s n=%d %d->%d: endpoints wrong: %v", name, n, s, d, r.nodes)
	}
	for i := 0; i+1 < len(r.nodes); i++ {
		a, b := r.nodes[i], r.nodes[i+1]
		rim := b == topology.NextCW(n, a) || b == topology.NextCCW(n, a)
		cross := i == 0 && b == topology.Antipode(n, a)
		if !rim && !cross {
			t.Fatalf("%s n=%d %d->%d: illegal step %d->%d in %v", name, n, s, d, a, b, r.nodes)
		}
	}
}

func TestQuarcDiameterIsNOver4(t *testing.T) {
	for _, n := range walkSizes {
		if d, _ := stats(t, "quarc", n); d != n/4 {
			t.Errorf("n=%d: walked diameter %d, want n/4 = %d", n, d, n/4)
		}
	}
}

// TestQuarcHopsMatchesPathLength: topology.QuarcHops, the transceiver's hop count,
// is the length of the walked route, and every step is legal.
func TestQuarcHopsMatchesPathLength(t *testing.T) {
	for _, n := range walkSizes {
		walk := walked(t, "quarc", n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				r := walk(s, d)
				if r.hops() != topology.QuarcHops(n, s, d) {
					t.Fatalf("n=%d %d->%d: walked %v vs topology.QuarcHops %d", n, s, d, r.nodes, topology.QuarcHops(n, s, d))
				}
				checkRingSteps(t, "quarc", n, s, d, r)
			}
		}
	}
}

func TestQuarcAvgHops(t *testing.T) {
	// Exact closed-form check for n=16: offsets 1..4 cost 1..4 (sum 10),
	// 5..8 cost 1+8-o (4,3,2,1; sum 10), 9..11 cost 1+o-8 (2,3,4; sum 9),
	// 12..15 cost 16-o (4,3,2,1; sum 10). Total 39 over 15 pairs.
	want := 39.0 / 15.0
	if _, got := stats(t, "quarc", 16); got != want {
		t.Fatalf("walked quarc-16 mean hops = %v, want %v", got, want)
	}
}

func TestBroadcastBranchesFollowBaseRouting(t *testing.T) {
	// BRCP: a branch stream traverses exactly the unicast route to its Last
	// node (paper §2.5.2).
	for _, n := range []int{8, 16, 32, 64} {
		walk := walked(t, "quarc", n)
		for s := 0; s < n; s += 5 {
			for _, b := range topology.QuarcBroadcastBranches(n, s) {
				unicast := walk(s, b.Last).nodes
				// The receivers are the path nodes after the source, except
				// that the cross-cw branch does not absorb at the antipode.
				var expect []int
				for i, node := range unicast[1:] {
					if b.Q == topology.QCrossCW && i == 0 {
						continue
					}
					expect = append(expect, node)
				}
				if len(expect) != len(b.Path) {
					t.Fatalf("n=%d s=%d %v: path %v vs unicast %v", n, s, b.Q, b.Path, unicast)
				}
				for i := range expect {
					if expect[i] != b.Path[i] {
						t.Fatalf("n=%d s=%d %v: path %v vs unicast %v", n, s, b.Q, b.Path, unicast)
					}
				}
			}
		}
	}
}

// TestSpidergonHopsMatchPaths: the walked across-first route takes the rim
// arc for offsets within n/4, else the cross link and the shorter arc from
// the antipode, and every step is legal.
func TestSpidergonHopsMatchPaths(t *testing.T) {
	for _, n := range walkSizes {
		walk := walked(t, "spidergon", n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				o := topology.Offset(n, s, d)
				want := 1 + abs(o-n/2)
				if o <= n/4 {
					want = o
				} else if o >= 3*n/4 {
					want = n - o
				}
				r := walk(s, d)
				if r.hops() != want {
					t.Fatalf("n=%d %d->%d: walked %v, want %d hops", n, s, d, r.nodes, want)
				}
				checkRingSteps(t, "spidergon", n, s, d, r)
			}
		}
	}
}

func TestSpidergonDiameter(t *testing.T) {
	// Across-first: the worst case is an offset just past n/4 or just before
	// 3n/4: the cross link plus n/4 - 1 rim hops.
	for _, n := range walkSizes {
		if d, _ := stats(t, "spidergon", n); d != n/4 {
			t.Errorf("n=%d: walked spidergon diameter %d, want %d", n, d, n/4)
		}
	}
}

func TestSpidergonVsQuarcHops(t *testing.T) {
	// The Quarc routes are never longer than the Spidergon routes (the
	// doubled cross link can only help).
	for _, n := range walkSizes {
		q, s := walked(t, "quarc", n), walked(t, "spidergon", n)
		for o := 1; o < n; o++ {
			if hq, hs := q(0, o).hops(), s(0, o).hops(); hq > hs {
				t.Fatalf("n=%d o=%d: quarc %d > spidergon %d", n, o, hq, hs)
			}
		}
	}
}

func TestVCMonotoneAlongRoutes(t *testing.T) {
	// A packet's VC never decreases and switches at most once.
	for _, n := range []int{8, 16, 32, 64} {
		for _, name := range []string{"quarc", "spidergon"} {
			walk := walked(t, name, n)
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					prev, switches := 0, 0
					for _, vc := range walk(s, d).vcs {
						if vc < prev {
							t.Fatalf("%s n=%d %d->%d: VC decreased", name, n, s, d)
						}
						if vc > prev {
							switches++
						}
						prev = vc
					}
					if switches > 1 {
						t.Fatalf("%s n=%d %d->%d: VC switched %d times", name, n, s, d, switches)
					}
				}
			}
		}
	}
}

// walkedCycle returns a cycle of the channel dependency graph over the named
// model's walked n-node routes, or nil; vc maps each hop's VC.
func walkedCycle(t *testing.T, name string, n int, vc func(int) int) []cdg.Channel {
	t.Helper()
	g, err := cdg.Walked(name, n, vc)
	if err != nil {
		t.Fatal(err)
	}
	return g.Cycle()
}

func sameVC(vc int) int { return vc }

func TestQuarcCDGAcyclic(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		if c := walkedCycle(t, "quarc", n, sameVC); c != nil {
			t.Errorf("n=%d: Quarc channel dependency graph has a cycle through %v", n, c)
		}
	}
}

func TestSpidergonCDGAcyclic(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		if c := walkedCycle(t, "spidergon", n, sameVC); c != nil {
			t.Errorf("n=%d: Spidergon channel dependency graph has a cycle through %v", n, c)
		}
	}
}

func TestCDGWithoutDatelineHasCycle(t *testing.T) {
	// Sanity check of the checker itself: a single-VC unidirectional ring
	// must be reported cyclic.
	g := cdg.Graph{}
	n := 8
	for s := 0; s < n; s++ {
		var chs []cdg.Channel
		cur := s
		for i := 0; i < n/2; i++ { // routes long enough to chain all links
			chs = append(chs, cdg.Channel{Node: cur, Out: 0, VC: 0})
			cur = topology.NextCW(n, cur)
		}
		g.AddRoute(chs)
	}
	if g.Cycle() == nil {
		t.Fatal("single-VC ring CDG reported acyclic; checker is broken")
	}
	// The walked routes need the dateline: with every hop on VC 0 the rims
	// close a cycle.
	for _, name := range []string{"quarc", "spidergon"} {
		for _, n := range []int{8, 16, 32, 64} {
			if walkedCycle(t, name, n, func(int) int { return 0 }) == nil {
				t.Errorf("%s n=%d: dateline-free routes reported acyclic", name, n)
			}
		}
	}
}

func TestSpidergonAvgHopsSanity(t *testing.T) {
	// Average distance grows with n and sits between 1 and the diameter.
	prev := 0.0
	for _, n := range walkSizes {
		diameter, avg := stats(t, "spidergon", n)
		if avg <= 1 || avg > float64(diameter) {
			t.Errorf("n=%d: implausible avg hops %v", n, avg)
		}
		if avg < prev {
			t.Errorf("avg hops not monotone in n at n=%d", n)
		}
		prev = avg
	}
}

// TestMeshHopsAreManhattan: a walked mesh route is as long as the Manhattan
// distance, a torus route as the wrap-aware one (the shorter way round each
// dimension).
func TestMeshHopsAreManhattan(t *testing.T) {
	for _, side := range []int{2, 3, 4, 5, 8} {
		n := side * side
		mesh, torus := walked(t, "mesh", n), walked(t, "torus", n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				dx, dy := abs(s%side-d%side), abs(s/side-d/side)
				if got := mesh(s, d).hops(); got != dx+dy {
					t.Fatalf("mesh %dx%d %d->%d: %d hops, want manhattan %d", side, side, s, d, got, dx+dy)
				}
				want := min(dx, side-dx) + min(dy, side-dy)
				if got := torus(s, d).hops(); got != want {
					t.Fatalf("torus %dx%d %d->%d: %d hops, want %d", side, side, s, d, got, want)
				}
			}
		}
	}
}

func TestTorusTakesShorterWay(t *testing.T) {
	walk := walked(t, "torus", 64)
	m := topology.Mesh{W: 8, H: 8, Torus: true}
	// From (0,0) to (7,0): one west hop on a torus.
	if got := walk(m.ID(0, 0), m.ID(7, 0)).hops(); got != 1 {
		t.Fatalf("torus wrap hops = %d, want 1", got)
	}
	// From (0,0) to (4,0): tie, should still be 4.
	if got := walk(m.ID(0, 0), m.ID(4, 0)).hops(); got != 4 {
		t.Fatalf("torus half-way hops = %d, want 4", got)
	}
}

func TestMeshDiameter(t *testing.T) {
	if d, _ := stats(t, "mesh", 16); d != 6 {
		t.Fatalf("4x4 mesh diameter = %d, want 6", d)
	}
	if d, _ := stats(t, "torus", 16); d != 4 {
		t.Fatalf("4x4 torus diameter = %d, want 4", d)
	}
}

func TestMeshVsQuarcDiameterClaim(t *testing.T) {
	// Paper §2.6 motivates capping the Quarc at 64 nodes because its n/4
	// diameter eventually exceeds the mesh's 2(sqrt(n)-1). Check the small
	// sizes where the ring still wins or ties, and that the crossover has
	// happened by n = 64 (16 vs 14), which is why larger Quarcs are not
	// worthwhile.
	for _, n := range []int{16, 36} {
		q, _ := stats(t, "quarc", n)
		m, _ := stats(t, "mesh", n)
		if q > m {
			t.Errorf("n=%d: quarc diameter %d > mesh diameter %d", n, q, m)
		}
	}
	q, _ := stats(t, "quarc", 64)
	m, _ := stats(t, "mesh", 64)
	if q <= m {
		t.Errorf("n=64: expected the mesh to have caught up (quarc %d vs mesh %d)", q, m)
	}
}

func TestMeshAvgHops(t *testing.T) {
	// The 2x2 case, where the exact average is easy: pairs at distance 1 (8)
	// and 2 (4): 16/12.
	want := 16.0 / 12.0
	if _, got := stats(t, "mesh", 4); got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("2x2 mean hops = %v, want %v", got, want)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
