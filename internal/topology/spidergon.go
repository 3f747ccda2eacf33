package topology

import "fmt"

// SpidergonFirst identifies the first hop chosen by the Spidergon's
// deterministic "across-first" routing (paper §2.1, ref [5]): either a rim
// direction, or the single shared cross link followed by rim hops.
type SpidergonFirst int

const (
	SpiCW SpidergonFirst = iota
	SpiCCW
	SpiCross
)

func (s SpidergonFirst) String() string {
	switch s {
	case SpiCW:
		return "cw"
	case SpiCCW:
		return "ccw"
	case SpiCross:
		return "cross"
	}
	return fmt.Sprintf("SpidergonFirst(%d)", int(s))
}

// SpidergonRoute returns the first-hop decision for dst relative to src.
// With o = (dst-src) mod n: o <= n/4 goes clockwise, o >= 3n/4 goes
// counter-clockwise, anything else takes the cross link first and finishes
// on the rim at the antipode.
func SpidergonRoute(n, src, dst int) SpidergonFirst {
	o := Offset(n, src, dst)
	if o == 0 {
		panic(fmt.Sprintf("topology: SpidergonRoute with src == dst == %d", src))
	}
	switch {
	case o <= n/4:
		return SpiCW
	case o >= 3*n/4:
		return SpiCCW
	default:
		return SpiCross
	}
}

// SpidergonChain describes one of the two broadcast-by-unicast chains
// (paper §2.1/§2.2: deadlock-free broadcast in the Spidergon is achieved by
// consecutive unicast transmissions along the rim, N-1 hop traversals in
// total). Nodes lists the receivers in chain order.
type SpidergonChain struct {
	Dir   Direction
	Nodes []int
}

// SpidergonBroadcastChains splits the n-1 receivers into a clockwise chain
// of ceil((n-1)/2) nodes and a counter-clockwise chain with the rest.
func SpidergonBroadcastChains(n, src int) []SpidergonChain {
	cwLen := (n - 1 + 1) / 2 // ceil((n-1)/2)
	var cw, ccw []int
	for i := 1; i <= cwLen; i++ {
		cw = append(cw, Mod(src+i, n))
	}
	for i := 1; i <= n-1-cwLen; i++ {
		ccw = append(ccw, Mod(src-i, n))
	}
	chains := []SpidergonChain{{Dir: CW, Nodes: cw}}
	if len(ccw) > 0 {
		chains = append(chains, SpidergonChain{Dir: CCW, Nodes: ccw})
	}
	return chains
}
