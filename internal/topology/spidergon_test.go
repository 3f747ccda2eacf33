package topology

import "testing"

func TestSpidergonRouteBoundaries(t *testing.T) {
	// n = 16: offsets 1..4 CW, 5..11 cross, 12..15 CCW.
	want := map[int]SpidergonFirst{
		1: SpiCW, 4: SpiCW,
		5: SpiCross, 8: SpiCross, 11: SpiCross,
		12: SpiCCW, 15: SpiCCW,
	}
	for o, f := range want {
		if got := SpidergonRoute(16, 0, o); got != f {
			t.Errorf("SpidergonRoute(16,0,%d) = %v, want %v", o, got, f)
		}
	}
}

func TestSpidergonRoutePanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for src == dst")
		}
	}()
	SpidergonRoute(16, 2, 2)
}

func TestSpidergonBroadcastChains(t *testing.T) {
	for _, n := range ringSizes {
		for s := 0; s < n; s += 3 {
			chains := SpidergonBroadcastChains(n, s)
			seen := map[int]int{}
			total := 0
			for _, c := range chains {
				for i, node := range c.Nodes {
					seen[node]++
					total++
					// Chain nodes are consecutive rim neighbours.
					prev := s
					if i > 0 {
						prev = c.Nodes[i-1]
					}
					var want int
					if c.Dir == CW {
						want = NextCW(n, prev)
					} else {
						want = NextCCW(n, prev)
					}
					if node != want {
						t.Fatalf("n=%d s=%d: chain %v not consecutive at %d", n, s, c.Dir, i)
					}
				}
			}
			if total != n-1 {
				t.Fatalf("n=%d s=%d: chains cover %d nodes, want %d", n, s, total, n-1)
			}
			for d, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d s=%d: node %d covered %d times", n, s, d, c)
				}
			}
		}
	}
}

func TestSpidergonChainHopBudget(t *testing.T) {
	// Paper §2.1: broadcast requires traversing N-1 hops in total.
	for _, n := range ringSizes {
		hops := 0
		for _, c := range SpidergonBroadcastChains(n, 0) {
			hops += len(c.Nodes)
		}
		if hops != n-1 {
			t.Errorf("n=%d: chains traverse %d hops, want %d", n, hops, n-1)
		}
	}
}

func TestRimVCDateline(t *testing.T) {
	n := 16
	// CW: only the link leaving n-1 switches to VC1; afterwards it sticks.
	if RimVC(n, CW, 3, 0) != 0 {
		t.Fatal("CW non-dateline link should stay on VC0")
	}
	if RimVC(n, CW, n-1, 0) != 1 {
		t.Fatal("CW dateline link should switch to VC1")
	}
	if RimVC(n, CW, 3, 1) != 1 {
		t.Fatal("VC1 must be sticky")
	}
	// CCW: the link leaving node 0.
	if RimVC(n, CCW, 0, 0) != 1 || RimVC(n, CCW, 5, 0) != 0 {
		t.Fatal("CCW dateline wrong")
	}
}
