package topology

import (
	"testing"
	"testing/quick"
)

var ringSizes = []int{8, 12, 16, 20, 24, 32, 36, 48, 64}

func TestValidateRingSize(t *testing.T) {
	for _, n := range ringSizes {
		if err := ValidateRingSize(n); err != nil {
			t.Errorf("ValidateRingSize(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, 4, 6, 10, 14, 68, 128} {
		if err := ValidateRingSize(n); err == nil {
			t.Errorf("ValidateRingSize(%d) accepted invalid size", n)
		}
	}
}

func TestModAndOffset(t *testing.T) {
	if Mod(-1, 16) != 15 || Mod(16, 16) != 0 || Mod(17, 16) != 1 {
		t.Fatal("Mod wrong")
	}
	if Offset(16, 15, 0) != 1 || Offset(16, 0, 15) != 15 || Offset(16, 5, 5) != 0 {
		t.Fatal("Offset wrong")
	}
	if NextCW(16, 15) != 0 || NextCCW(16, 0) != 15 || Antipode(16, 3) != 11 {
		t.Fatal("neighbour helpers wrong")
	}
}

func TestQuadrantBoundaries(t *testing.T) {
	// n = 16: offsets 1..4 right, 5..8 cross-ccw, 9..11 cross-cw, 12..15 left.
	want := map[int]Quadrant{
		1: QRight, 4: QRight,
		5: QCrossCCW, 8: QCrossCCW,
		9: QCrossCW, 11: QCrossCW,
		12: QLeft, 15: QLeft,
	}
	for o, q := range want {
		if got := QuadrantOf(16, 0, o); got != q {
			t.Errorf("QuadrantOf(16, 0, %d) = %v, want %v", o, got, q)
		}
	}
}

func TestQuadrantOfPanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QuadrantOf(src == dst) did not panic")
		}
	}()
	QuadrantOf(16, 3, 3)
}

func TestQuadrantVertexSymmetry(t *testing.T) {
	// The quadrant must depend only on the offset (vertex symmetry).
	for _, n := range ringSizes {
		for o := 1; o < n; o++ {
			base := QuadrantOf(n, 0, o)
			for s := 1; s < n; s += 3 {
				if q := QuadrantOf(n, s, Mod(s+o, n)); q != base {
					t.Fatalf("n=%d offset=%d: quadrant differs between sources", n, o)
				}
			}
		}
	}
}

func TestQuarcHopsZeroForSelf(t *testing.T) {
	if QuarcHops(16, 5, 5) != 0 {
		t.Fatal("QuarcHops(self) != 0")
	}
}

func TestFig6BroadcastExample(t *testing.T) {
	// Paper Fig 6: node 0 broadcasts in a 16-node Quarc; the four branch
	// destinations are 4, 5, 11 and 12.
	br := QuarcBroadcastBranches(16, 0)
	got := map[Quadrant]int{}
	for _, b := range br {
		got[b.Q] = b.Last
	}
	want := map[Quadrant]int{QRight: 4, QCrossCCW: 5, QCrossCW: 11, QLeft: 12}
	for q, last := range want {
		if got[q] != last {
			t.Errorf("branch %v last = %d, want %d", q, got[q], last)
		}
	}
}

func TestBroadcastBranchesCoverExactlyOnce(t *testing.T) {
	for _, n := range ringSizes {
		for s := 0; s < n; s++ {
			seen := make(map[int]int)
			for _, b := range QuarcBroadcastBranches(n, s) {
				if len(b.Path) == 0 {
					t.Fatalf("n=%d s=%d: empty branch %v", n, s, b.Q)
				}
				if b.Path[len(b.Path)-1] != b.Last {
					t.Fatalf("n=%d s=%d %v: last path node %d != Last %d",
						n, s, b.Q, b.Path[len(b.Path)-1], b.Last)
				}
				for _, node := range b.Path {
					seen[node]++
				}
				// Branch depth must not exceed the diameter.
				if h := QuarcHops(n, s, b.Last); h > n/4 {
					t.Fatalf("n=%d s=%d %v: branch deeper than diameter", n, s, b.Q)
				}
			}
			if seen[s] != 0 {
				t.Fatalf("n=%d s=%d: source receives its own broadcast", n, s)
			}
			for d := 0; d < n; d++ {
				if d == s {
					continue
				}
				if seen[d] != 1 {
					t.Fatalf("n=%d s=%d: node %d covered %d times", n, s, d, seen[d])
				}
			}
		}
	}
}

func TestMulticastBranches(t *testing.T) {
	n := 16
	targets := []int{2, 5, 8, 11, 14}
	brs := QuarcMulticastBranches(n, 0, targets)
	covered := map[int]bool{}
	for _, b := range brs {
		full := quadBranch(n, 0, b.Q)
		firstHop := 1
		if b.Q == QCrossCW {
			firstHop = 2
		}
		for i, node := range full.Path {
			bit := b.Bits & (1 << uint(firstHop-1+i))
			isTarget := contains(targets, node)
			if (bit != 0) != isTarget {
				t.Errorf("branch %v node %d: bit=%v targeted=%v", b.Q, node, bit != 0, isTarget)
			}
			if bit != 0 {
				covered[node] = true
			}
		}
		if !contains(targets, b.Last) {
			t.Errorf("branch %v Last=%d is not a target", b.Q, b.Last)
		}
	}
	for _, want := range targets {
		if !covered[want] {
			t.Errorf("target %d not covered by any branch", want)
		}
	}
}

func TestMulticastSkipsEmptyBranches(t *testing.T) {
	// Targets only in the right quadrant: one branch expected.
	brs := QuarcMulticastBranches(16, 0, []int{1, 3})
	if len(brs) != 1 || brs[0].Q != QRight || brs[0].Last != 3 {
		t.Fatalf("branches = %+v, want single right branch ending at 3", brs)
	}
	if brs[0].Bits != 0b101 {
		t.Fatalf("bits = %b, want 101", brs[0].Bits)
	}
}

func TestMulticastIgnoresSelf(t *testing.T) {
	if brs := QuarcMulticastBranches(16, 0, []int{0}); len(brs) != 0 {
		t.Fatalf("multicast to self produced branches: %+v", brs)
	}
}

func TestMulticastOfEveryoneEqualsBroadcast(t *testing.T) {
	n := 16
	all := make([]int, 0, n-1)
	for d := 1; d < n; d++ {
		all = append(all, d)
	}
	mbrs := QuarcMulticastBranches(n, 0, all)
	bbrs := QuarcBroadcastBranches(n, 0)
	if len(mbrs) != len(bbrs) {
		t.Fatalf("multicast-all has %d branches, broadcast %d", len(mbrs), len(bbrs))
	}
	for i := range mbrs {
		if mbrs[i].Last != bbrs[i].Last || mbrs[i].Q != bbrs[i].Q {
			t.Fatalf("branch %d: %+v vs %+v", i, mbrs[i], bbrs[i])
		}
	}
}

// Property: for arbitrary target sets the union of branch-covered nodes is
// exactly the requested target set minus the source.
func TestMulticastCoverageProperty(t *testing.T) {
	check := func(rawTargets []uint8, srcRaw uint8) bool {
		n := 32
		src := int(srcRaw) % n
		targets := make([]int, len(rawTargets))
		wantSet := map[int]bool{}
		for i, r := range rawTargets {
			targets[i] = int(r) % n
			if targets[i] != src {
				wantSet[targets[i]] = true
			}
		}
		covered := map[int]bool{}
		for _, b := range QuarcMulticastBranches(n, src, targets) {
			full := quadBranch(n, src, b.Q)
			firstHop := 1
			if b.Q == QCrossCW {
				firstHop = 2
			}
			for i, node := range full.Path {
				if b.Bits&(1<<uint(firstHop-1+i)) != 0 {
					if covered[node] {
						return false // double delivery
					}
					covered[node] = true
				}
			}
		}
		if len(covered) != len(wantSet) {
			return false
		}
		for nnode := range wantSet {
			if !covered[nnode] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func quadBranch(n, src int, q Quadrant) BroadcastBranch {
	for _, b := range QuarcBroadcastBranches(n, src) {
		if b.Q == q {
			return b
		}
	}
	panic("no such quadrant branch")
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
