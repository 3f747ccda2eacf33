package network

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// InvariantChecker validates wormhole-switching invariants on a live fabric
// after every cycle. It is test code, exported to network's external tests
// (the stress and conservation suites), and turns subtle routing bugs into
// immediate, attributable failures instead of corrupted statistics:
//
//	I1  In-order per lane: flits buffered in any input lane belong to at
//	    most two packets (the tail of one followed by the head of the
//	    next), with strictly consecutive sequence numbers per packet.
//	I2  Exclusive VC ownership: every (output port, downstream VC) pair is
//	    held by at most one upstream lane (checked structurally inside the
//	    router; here we re-derive it from buffer contents).
//	I3  Buffer bounds: no lane ever exceeds its configured depth (the
//	    credit/handshake guarantee of the link layer).
//	I4  Progress: unless the fabric is empty, some flit moves at least once
//	    every Horizon cycles (deadlock/livelock detector; the dateline VC
//	    discipline makes genuine deadlock impossible, so a stall of Horizon
//	    cycles is a bug).
//	I5  Credit conservation: at every cycle boundary, for every wired
//	    (node, out, vc), the sender's credit counter plus the flits buffered
//	    in the downstream lane equals the lane depth.
//	I6  Packet-table conservation: at every cycle boundary the table's live
//	    packets are exactly the packets with a flit in a source queue or a
//	    lane — its live count equals the number of distinct handles there.
type InvariantChecker struct {
	fab     *Fabric
	Horizon int64 // progress window (default 4096)

	lastForward uint64
	lastMove    int64
	err         error
}

// NewInvariantChecker attaches a checker to a fabric.
func NewInvariantChecker(fab *Fabric) *InvariantChecker {
	return &InvariantChecker{fab: fab, Horizon: 4096, lastMove: 0}
}

// Err returns the first violation found, or nil.
func (c *InvariantChecker) Err() error { return c.err }

// Check validates the invariants at the current cycle. It records (and
// keeps returning) the first violation.
func (c *InvariantChecker) Check() error {
	if c.err != nil {
		return c.err
	}
	for _, check := range []func() error{c.checkLanes, c.checkCredits, c.checkPackets, c.checkProgress} {
		if c.err = check(); c.err != nil {
			break
		}
	}
	return c.err
}

func (c *InvariantChecker) checkCredits() error {
	for node, ws := range c.fab.wires {
		for o, w := range ws {
			if w.Sink {
				continue
			}
			down := c.fab.Routers[w.Dst.Node]
			for vc := 0; vc < down.Lanes(w.Dst.Port); vc++ {
				credit, held := c.fab.Routers[node].Credit(o, vc), down.LaneLen(w.Dst.Port, vc)
				if credit+held != down.Depth() {
					return fmt.Errorf("node %d out %d vc %d: credit %d + %d flits buffered at %d.%d != depth %d",
						node, o, vc, credit, held, w.Dst.Node, w.Dst.Port, down.Depth())
				}
			}
		}
	}
	return nil
}

func (c *InvariantChecker) checkLanes() error {
	for node, r := range c.fab.Routers {
		for in := 0; in < r.NumInputs(); in++ {
			for lane := 0; ; lane++ {
				slots, ok := r.LaneContents(in, lane)
				if !ok {
					break
				}
				if err := validateLaneStream(c.fab.Packets, slots); err != nil {
					return fmt.Errorf("node %d in %d lane %d: %w", node, in, lane, err)
				}
			}
		}
	}
	return nil
}

// checkPackets checks I6: it collects the distinct packet handles held in
// every lane and every source queue and compares their count with the
// table's live packets.
func (c *InvariantChecker) checkPackets() error {
	held := map[uint32]bool{}
	for node, r := range c.fab.Routers {
		for in := 0; in < r.NumInputs(); in++ {
			for lane := 0; ; lane++ {
				slots, ok := r.LaneContents(in, lane)
				if !ok {
					break
				}
				for _, s := range slots {
					held[s.Pkt] = true
				}
			}
		}
		for _, q := range c.fab.bases[node].Queues {
			for _, p := range q.pkts[q.head:] {
				held[p.s.Pkt] = true
			}
		}
	}
	if live := c.fab.Packets.Live(); live != len(held) {
		return fmt.Errorf("packet table holds %d live packets, lanes and source queues %d", live, len(held))
	}
	return nil
}

// validateLaneStream checks I1 on one lane's buffered slots.
func validateLaneStream(tbl *router.Packets, slots []router.Slot) error {
	// The head may be mid-packet (header already gone) or a header.
	for i := 1; i < len(slots); i++ {
		s, prev := &slots[i], &slots[i-1]
		id, prevID := tbl.Header(s).PktID, tbl.Header(prev).PktID
		if id == prevID {
			if s.Seq != prev.Seq+1 {
				return fmt.Errorf("flit seq %d after %d in pkt %d", s.Seq, prev.Seq, id)
			}
			continue
		}
		// Packet boundary: previous must be a tail, next must be a header.
		if prev.Kind != flit.Tail {
			return fmt.Errorf("pkt %d interrupted by pkt %d before its tail", prevID, id)
		}
		if s.Kind != flit.Header {
			return fmt.Errorf("pkt %d starts mid-lane with %v", id, s.Kind)
		}
	}
	return nil
}

func (c *InvariantChecker) checkProgress() error {
	now := c.fab.Now()
	moved := c.fab.FlitsForwarded() + c.fab.FlitsDelivered()
	if moved != c.lastForward {
		c.lastForward = moved
		c.lastMove = now
		return nil
	}
	// Nothing moved this cycle; fine if the network is idle.
	idle := c.fab.Tracker.InFlight() == 0
	if idle {
		c.lastMove = now
		return nil
	}
	if now-c.lastMove > c.Horizon {
		return fmt.Errorf("network: no flit movement for %d cycles with %d messages in flight",
			now-c.lastMove, c.fab.Tracker.InFlight())
	}
	return nil
}

// StepChecked advances the fabric one cycle and validates invariants,
// returning the first violation.
func (c *InvariantChecker) StepChecked() error {
	c.fab.Step()
	return c.Check()
}
