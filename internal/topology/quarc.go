package topology

import "fmt"

// Quadrant identifies which of the four ports of the all-port Quarc router a
// message is injected into (paper §2.4: the transceiver's quadrant
// calculator). The names follow the direction the packet travels on the rim;
// the two cross quadrants use the doubled cross link first.
type Quadrant int

const (
	QRight    Quadrant = iota // rim, clockwise
	QLeft                     // rim, counter-clockwise
	QCrossCW                  // cross link, then rim clockwise
	QCrossCCW                 // cross link, then rim counter-clockwise
)

const NumQuadrants = 4

func (q Quadrant) String() string {
	switch q {
	case QRight:
		return "right"
	case QLeft:
		return "left"
	case QCrossCW:
		return "cross-cw"
	case QCrossCCW:
		return "cross-ccw"
	}
	return fmt.Sprintf("Quadrant(%d)", int(q))
}

// QuadrantOf computes the quadrant of dst relative to src in an n-node Quarc
// (the transceiver's quadrant calculator, §2.4/§2.5.1). src == dst is
// invalid.
//
// With o = (dst-src) mod n:
//
//	1      <= o <= n/4    right      (rim CW, o hops)
//	n/4+1  <= o <= n/2    cross-ccw  (cross then rim CCW, 1 + n/2 - o hops)
//	n/2+1  <= o <= 3n/4-1 cross-cw   (cross then rim CW, 1 + o - n/2 hops)
//	3n/4   <= o <= n-1    left       (rim CCW, n - o hops)
func QuadrantOf(n, src, dst int) Quadrant {
	o := Offset(n, src, dst)
	if o == 0 {
		panic(fmt.Sprintf("topology: QuadrantOf with src == dst == %d", src))
	}
	switch {
	case o <= n/4:
		return QRight
	case o <= n/2:
		return QCrossCCW
	case o < 3*n/4:
		return QCrossCW
	default:
		return QLeft
	}
}

// QuarcHops returns the deterministic shortest-path hop count from src to
// dst (0 when equal).
func QuarcHops(n, src, dst int) int {
	if src == dst {
		return 0
	}
	o := Offset(n, src, dst)
	switch QuadrantOf(n, src, dst) {
	case QRight:
		return o
	case QCrossCCW:
		return 1 + n/2 - o
	case QCrossCW:
		return 1 + o - n/2
	default: // QLeft
		return n - o
	}
}

// BroadcastBranch describes one of the (up to) four BRCP branch packets a
// Quarc transceiver emits for a broadcast or multicast (paper §2.5.2):
// inject into quadrant Q with header destination Last (the final node the
// stream visits); the stream is absorbed by every visited node except that a
// cross-cw stream does not absorb at the antipode (the minimal crossbar has
// no eject path from that input), which is what makes coverage exact.
type BroadcastBranch struct {
	Q    Quadrant
	Last int   // header destination: last node visited
	Path []int // nodes that receive a copy, in visit order
}

// QuarcBroadcastBranches returns the four branches for a broadcast from src.
// For n = 16, src = 0 this reproduces the paper's Fig 6: last nodes 4
// (right), 5 (cross-ccw), 11 (cross-cw) and 12 (left).
func QuarcBroadcastBranches(n, src int) []BroadcastBranch {
	mk := func(q Quadrant, last int, nodes []int) BroadcastBranch {
		return BroadcastBranch{Q: q, Last: last, Path: nodes}
	}
	var right, left, ccw, cw []int
	for o := 1; o <= n/4; o++ {
		right = append(right, Mod(src+o, n))
	}
	for o := n / 2; o >= n/4+1; o-- { // cross-ccw visits antipode first, then backwards
		ccw = append(ccw, Mod(src+o, n))
	}
	for o := n/2 + 1; o <= 3*n/4-1; o++ { // cross-cw skips the antipode
		cw = append(cw, Mod(src+o, n))
	}
	for o := n - 1; o >= 3*n/4; o-- {
		left = append(left, Mod(src+o, n))
	}
	return []BroadcastBranch{
		mk(QRight, Mod(src+n/4, n), right),
		mk(QCrossCCW, Mod(src+n/4+1, n), ccw),
		mk(QCrossCW, Mod(src+3*n/4-1, n), cw),
		mk(QLeft, Mod(src+3*n/4, n), left),
	}
}

// QuarcMulticastBranches restricts broadcast branches to an explicit target
// set, returning only branches with at least one target, the trimmed header
// destination (furthest target on the branch) and the BRCP bitstring whose
// bit i marks the node at hop distance i+1 along the branch as a receiver
// (paper §2.5.3).
type MulticastBranch struct {
	Q    Quadrant
	Last int
	Bits uint64 // bit i: the (i+1)-th node of the stream is a target
}

// QuarcMulticastBranches computes the branch set for a multicast from src to
// targets. Targets equal to src are ignored.
func QuarcMulticastBranches(n, src int, targets []int) []MulticastBranch {
	want := make(map[int]bool, len(targets))
	for _, t := range targets {
		if t != src {
			want[Mod(t, n)] = true
		}
	}
	var out []MulticastBranch
	for _, b := range QuarcBroadcastBranches(n, src) {
		var bits uint64
		last := -1
		// Bit i marks the node at hop distance i+1 along the stream. On the
		// cross-cw branch hop 1 is the antipode, which never absorbs there
		// (it belongs to the cross-ccw quadrant), so its receivers start at
		// hop 2 (bit 1).
		firstHop := 1
		if b.Q == QCrossCW {
			firstHop = 2
		}
		for i, node := range b.Path {
			if want[node] {
				bits |= 1 << uint(firstHop-1+i)
				last = node
			}
		}
		if last < 0 {
			continue
		}
		out = append(out, MulticastBranch{Q: b.Q, Last: last, Bits: bits})
	}
	return out
}
