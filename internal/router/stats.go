package router

import "math/bits"

// Per-router microarchitectural counters. These answer the "why is it
// slow" questions behind the paper's curves: where flits stall (no credit,
// VC busy, lost output arbitration) and how full the input lanes run. The
// fabric aggregates them for the contention experiments; they cost a few
// increments per cycle and are always on.

// StallCause classifies why a bid failed to move in a cycle.
type StallCause int

const (
	StallNoCredit StallCause = iota // downstream lane full
	StallVCBusy                     // required downstream VC held by another packet
	StallArbLost                    // output granted to another input this cycle
	numStallCauses
)

func (s StallCause) String() string {
	switch s {
	case StallNoCredit:
		return "no-credit"
	case StallVCBusy:
		return "vc-busy"
	case StallArbLost:
		return "arb-lost"
	}
	return "unknown"
}

// Stats are the router's cumulative counters.
type Stats struct {
	Grants       uint64                 // flits moved through the crossbar or ejected
	Stalls       [numStallCauses]uint64 // failed bids by cause
	OccupancySum uint64                 // sum over cycles of buffered flits (integral)
	Cycles       uint64                 // cycles accounted (stepped or slept)
}

// MeanOccupancy returns the time-averaged number of buffered flits.
func (s Stats) MeanOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Cycles)
}

// TotalStalls sums all stall causes.
func (s Stats) TotalStalls() uint64 {
	var t uint64
	for _, v := range s.Stalls {
		t += v
	}
	return t
}

// Stats returns a copy of the router's counters, first settling the cycles
// its parked input ports have sat out so far. Arbitrate accounts a stepped
// cycle; the network accounts the cycles it skipped stepping the switch in
// bulk (Slept), so after the network has brought
// a sleeping switch up to date the counters are those of a switch stepped
// every cycle.
func (r *Router) Stats() Stats {
	for w := r.unsettled; w != 0; w &= w - 1 {
		r.settle(bits.TrailingZeros64(w), r.stats.Cycles)
	}
	return r.stats
}
