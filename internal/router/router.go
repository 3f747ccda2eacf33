// Package router implements a cycle-level wormhole switch parameterised by
// topology-specific wiring and routing, mirroring the module decomposition of
// the paper's switch (Fig 4):
//
//   - Input Port Controller (IPC): two virtual-channel lanes of parametrised
//     flit buffers per input port, with a write controller that demultiplexes
//     incoming flits into lanes (§2.3.1). Injection ports from the network
//     adapter are modelled as additional input ports with a single lane.
//   - VC arbiter: per input port, selects which lane presents a flit to the
//     crossbar each cycle. The paper's timer FSM gives blocked lanes "equal
//     opportunity"; at cycle granularity this is a switch-on-block policy
//     (the arbiter moves to the other lane when the chosen one fails to
//     advance), which is deterministic and fair.
//   - Flow Control Unit (FCU): per lane, remembers the output binding from
//     header until tail (the switching-information table of §2.3.2).
//   - Output Port Controller (OPC): per output port, a master FSM that
//     round-robins over the (at most three, for Quarc) requesting IPCs, and a
//     slave FSM that allocates a downstream virtual channel per packet and
//     holds it until the tail passes (the VC allocation table of §2.3.3).
//     There are no output buffers, exactly as in the paper.
//
// Flow control is sender-side credit counting, the model of the paper's
// channel-status lines (CH_STATUS_N, §2.3.1/§2.7): each output port holds one
// counter per downstream lane, armed at the lane depth by ConnectOutput,
// decremented when Commit sends a flit and incremented when the network hands
// back the credit of a downstream pop (ReturnCredit). A switch never reads
// its neighbour's buffers, and because credits only change when the network
// applies a cycle's moves, Arbitrate sees the start-of-cycle free space: the
// simulation is order-independent and a flit advances one hop per cycle.
//
// The cycle's rules, each of which a test-only reference network in the
// experiment layer encodes independently of this package:
//
//   - Grants of decisions with no output (pure ejection) come first, in input
//     order; then each output grants at most one input, in output order.
//   - An output's OPC pointer moves to i+1 only when it grants input i; it
//     serves the first sendable bid at or after the pointer.
//   - A port's VC arbiter presents its first nonempty lane at or after its
//     pointer, and moves past a lane only when that lane stalls.
//   - A stalled header is charged StallVCBusy when its VC is held, else
//     StallNoCredit; a bid that could have sent but lost the output is
//     charged StallArbLost.
//   - A VC freed by a tail can be granted from the next cycle.
//   - The shared ejection port gives a header its lowest free VC.
//   - A pop's credit is usable from the next cycle: a switch sees its
//     downstream lanes' start-of-cycle free space.
//   - The hop count rises only on a flit forwarded from a network input.
//
// Parking: a lane that cannot advance is not re-evaluated. When an input
// port's bid fails for want of a credit (StallNoCredit) or of a downstream VC
// (StallVCBusy), and every other lane of the port holding a flit would fail
// for one of those reasons too, the port parks: it leaves Arbitrate's occupancy scan and each
// of its lanes records the output it waits on and its stall cause. Nothing
// the switch does can change those verdicts, so the port stays parked until
// the one event that can: ReturnCredit on that output and VC, the Commit
// that releases that output's VC, or a Push into one of the port's empty
// lanes. The cycles a port sits out are settled lazily, at its next Arbitrate
// or when Stats is read, exactly as evaluating it every cycle would have charged them:
// each cycle the VC arbiter selects the next parked lane in rotation, the
// lane is charged its recorded cause and the arbiter's pointer moves past it
// — over the lanes that were parked, not the lanes that hold flits when the
// port is settled. A switch whose occupied ports are all parked is wedged (a
// drained switch trivially so), and the network may skip stepping it until
// one of those events.
//
// Flit ownership: a buffered flit is a 12-byte Slot — the paper's 2-bit flit
// type, the flit's index and hop count, and the handle of its packet's header
// record in the packet table the switches of one fabric share (Packets) — and
// it lives in exactly one slot of its switch's slab. Bids and moves name it
// by lane and slot, never by copy: Commit vacates the slot, the network reads
// the moved flit there (MoveFlit) to deliver it and to push it downstream,
// and that 12-byte push is the one copy a hop makes. It relies on the
// vacated-slot rule stated at Router.slab. The header fields a packet's flits
// share are never copied per hop: Route reads the packet's record in the
// table (Header), with the header slot's hop count, once per routed header,
// VCNext reads no packet field at all, and the PE is delivered the record
// and the slot.
package router

import (
	"fmt"
	"math/bits"

	"quarc/internal/flit"
)

// Decision is the routing verdict for a header flit at an input port.
type Decision struct {
	Out   int  // output port to forward to; NoOutput for pure local delivery
	Eject bool // deliver to the local PE
	Clone bool // deliver AND forward simultaneously (Quarc absorb-and-forward)
}

// NoOutput marks a decision with no forwarding component.
const NoOutput = -1

// RouteFunc computes the decision for the header of packet h arriving at
// input port in of the given node; hop is the header slot's hop count
// (Slot.Hop), so the header flit's multicast bitstring is h.Bits>>hop. It
// must be a pure function (deterministic routing, §2.5.1). The 56-byte record
// comes by value: a pointer handed to a func value escapes, so Fabric.Walk's
// record could not stay on its stack.
type RouteFunc func(node, in int, h Header, hop int) Decision

// VCFunc returns the virtual channel to request on output port out for a
// packet arriving on input port in with current virtual channel cur (0 at
// injection). This implements the dateline discipline of internal/topology;
// the torus model additionally resets the VC when a packet changes
// dimension. Like RouteFunc it must be a pure function: a waiting header's
// VC is computed once, alongside its cached route, however long it waits.
type VCFunc func(node, out, in, cur int) int

// Config describes a switch instance.
type Config struct {
	Node      int
	VCs       int   // lanes per network input port (the paper's switch has 2)
	Depth     int   // flits per lane buffer
	InLanes   []int // lanes per input port; len(InLanes) = number of inputs
	NOut      int   // number of output ports
	EjectPort int   // output port index acting as the shared ejection port, or NoOutput for dedicated per-input ejection (Quarc)
	Route     RouteFunc
	VCNext    VCFunc
	// Reach[o] lists the input ports wired to output o in the minimal
	// crossbar. nil means fully connected. Used to catch routing bugs and to
	// drive the cost model.
	Reach [][]int
}

// lane is one virtual-channel buffer and its FCU state. The buffer is a ring
// of depth slots starting at slot base of the switch's slab: size flits, the
// oldest at base+head.
type lane struct {
	base              int32
	head, size, depth int32
	// Cached routing verdict for the header waiting at this lane's head
	// (pendOK set; Commit clears it when the header leaves, so a verdict
	// never meets another packet): Route and VCNext are pure, so a header
	// blocked for many cycles needs them computed (and validated) once, not
	// once per cycle. pendVC is the downstream VC the header requests on
	// pendDec's output (unset for pure ejection and for the shared ejection
	// port, which takes the first free VC).
	pendDec packedDec
	dec     packedDec // the FCU's latched decision, between header grant and tail departure
	pendVC  int8
	outVC   int8 // the downstream VC the active packet holds, or -1
	active  bool // between header grant and tail departure
	pendOK  bool
	// waitCause is the StallCause the lane's head failed with when its port
	// parked: what it waits for, and what each cycle the VC arbiter selects
	// it while the port sits out is charged. Meaningful while the lane is in
	// its port's parkedLanes.
	waitCause uint8
}

// packedDec is a Decision in 16 bits: the output port plus one in the low
// byte (0 = NoOutput; a switch has at most 64 outputs), Eject and Clone
// above it.
type packedDec uint16

const (
	decEject packedDec = 1 << 8
	decClone packedDec = 1 << 9
)

//quarc:hotpath
func pack(d Decision) packedDec {
	p := packedDec(d.Out + 1)
	if d.Eject {
		p |= decEject
	}
	if d.Clone {
		p |= decClone
	}
	return p
}

// out, eject and clone read the packed Decision's fields; out is NoOutput
// for pure local delivery.
func (p packedDec) out() int { return int(p&0xff) - 1 }

func (p packedDec) eject() bool { return p&decEject != 0 }

func (p packedDec) clone() bool { return p&decClone != 0 }

// headSlot returns the slab index of the lane's oldest flit.
func (ln *lane) headSlot() int { return int(ln.base + ln.head) }

type inputPort struct {
	lanes []lane // window of the set's lane array; a switch's ports are consecutive
	// parkedAt is the switch cycle (Stats.Cycles) through which the port's
	// parked cycles have been charged.
	parkedAt uint64
	rr       int32 // VC arbiter pointer
	count    int32 // flits buffered across the port's lanes
	// parkedLanes has bit l set for each lane that held a flit when the port
	// parked: the lanes the VC arbiter rotates over while the port sits out,
	// until settle charges those cycles.
	parkedLanes uint8
	bid         bid // this cycle's candidate, valid while the port is occupied
}

const noOwner = -1

type outputPort struct {
	// Inline and first: the counters ReturnCredit touches from outside.
	credit [maxVCs]int16 // per downstream lane: flits it can still take (at most MaxDepth)
	depth  int16         // downstream lane depth, the ceiling of every counter; 0 = sink (the PE absorbs at link rate)
	rr     int16         // OPC master FSM round-robin pointer over inputs
	owner  [maxVCs]int16 // per downstream VC: packed (in*16+lane) of the holder, or noOwner
	want   uint64        // this cycle: bit i set = input i bids for this output; zero between cycles
	// Bit i set: parked input port i may have a lane waiting on this output
	// for a credit (creditWait) or for a VC to be released (vcWait). A hint,
	// pruned when the wake scan finds the port waiting elsewhere.
	creditWait uint64
	vcWait     uint64
	sent       uint64
}

// maxVCs bounds the lanes of an input port and the VCs of an output.
const maxVCs = 8

// MaxDepth is the deepest lane buffer a switch can have: an output's credit
// counters, which count a downstream lane's free slots, are 16 bits.
const MaxDepth = 1<<15 - 1

// Move is a committed flit transfer, reported to the network for delivery
// and link accounting. The flit itself stays where it lay: Router.MoveFlit
// returns it. The fields are narrow because a switch has at most 64 ports,
// maxVCs lanes a port and MaxDepth slots a lane.
type Move struct {
	Slot     int32 // slab index of the moved flit's vacated slot
	In, Lane int8
	Out      int8 // NoOutput for pure ejection
	OutVC    int8
	Deliver  bool // a copy reaches the local PE
}

// Router is one switch instance. Push, called for a neighbour's move, reaches
// through the first six fields; ReturnCredit through out, and through in,
// parked and cfg when it wakes a port.
type Router struct {
	in  []inputPort
	out []outputPort
	// slab holds every lane's flit slots, lane-major. The vacated-slot rule:
	// a slot vacated by Commit keeps its bytes until the cycle's apply phase
	// has finished, so the network reads moved flits in place (MoveFlit).
	// A network lane cannot receive into its vacated slot in the same cycle:
	// that push would land there only if the lane was full at the start of
	// the cycle, when its sender held no credit. The one same-cycle writer
	// that can is the adapter's Feed into an injection lane, and Feed runs
	// after apply.
	slab     []Slot
	occupied uint64 // bit i set: input port i holds at least one flit
	parked   uint64 // bit i set: input port i is parked, out of arbitration
	buffered int    // flits across all input lanes (O(1) quiescence report)
	// unsettled has bit i set while input port i has parked cycles not yet
	// charged to the statistics: parked, or woken since and not yet settled.
	unsettled uint64
	pkts      *Packets
	cfg       Config
	// sleptOcc is the buffered-flit count recorded by Wedged, the per-cycle
	// occupancy integrand charged for slept cycles.
	sleptOcc uint64
	stats    Stats
}

// bid is one input port's candidate for the cycle: the lane the VC arbiter
// selected and the decision governing its head flit.
type bid struct {
	dec  packedDec
	lane int8
}

// New constructs a switch from its configuration, with a packet table of its
// own.
func New(cfg Config) *Router {
	r := NewSet(1, cfg)[0]
	r.cfg.Node = cfg.Node
	return r
}

// NewSet constructs the n switches of one fabric, each configured by cfg with
// its Node set to its index. They share one packet table, and each kind of
// switch state — the switches themselves, their lanes, the lanes' slots, the
// input ports and the output ports — is one array for the whole set, each
// switch a window of it.
func NewSet(n int, cfg Config) []*Router {
	validate(&cfg)
	var lanes int
	for _, nl := range cfg.InLanes {
		lanes += nl
	}
	k, slots := len(cfg.InLanes), lanes*cfg.Depth
	rs := make([]Router, n)
	pkts := new(Packets)
	laneArr := make([]lane, n*lanes)
	slab := make([]Slot, n*slots)
	inArr := make([]inputPort, n*k)
	outArr := make([]outputPort, n*cfg.NOut)
	set := make([]*Router, n)
	for node := range rs {
		r := &rs[node]
		r.cfg = cfg
		r.cfg.Node = node
		r.pkts = pkts
		r.in, inArr = inArr[:k:k], inArr[k:]
		base := 0 // the switch's slots, lane-major: each lane a ring of depth slots
		for i, nl := range cfg.InLanes {
			p := &r.in[i]
			p.lanes, laneArr = laneArr[:nl:nl], laneArr[nl:]
			for l := range p.lanes {
				p.lanes[l].depth, p.lanes[l].base, p.lanes[l].outVC = int32(cfg.Depth), int32(base), -1
				base += cfg.Depth
			}
		}
		r.slab, slab = slab[:slots:slots], slab[slots:]
		r.out, outArr = outArr[:cfg.NOut:cfg.NOut], outArr[cfg.NOut:]
		for o := range r.out {
			for v := range r.out[o].owner {
				r.out[o].owner[v] = noOwner
			}
		}
		set[node] = r
	}
	return set
}

// validate panics on a configuration no switch can be built from.
func validate(cfg *Config) {
	if cfg.VCs < 1 || cfg.VCs > maxVCs {
		panic(fmt.Sprintf("router: unsupported VC count %d", cfg.VCs))
	}
	if cfg.Depth < 1 || cfg.Depth > MaxDepth {
		panic(fmt.Sprintf("router: buffer depth %d outside [1,%d]", cfg.Depth, MaxDepth))
	}
	if len(cfg.InLanes) == 0 || cfg.NOut < 1 {
		panic("router: switch needs inputs and outputs")
	}
	if len(cfg.InLanes) > 64 || cfg.NOut > 64 {
		panic("router: more than 64 input or output ports")
	}
	for _, nl := range cfg.InLanes {
		if nl < 1 || nl > maxVCs {
			panic(fmt.Sprintf("router: input port with %d lanes", nl))
		}
	}
}

// Packets returns the packet table the switch resolves its slots in, shared
// by every switch of its NewSet.
func (r *Router) Packets() *Packets { return r.pkts }

// Node returns the node identifier.
func (r *Router) Node() int { return r.cfg.Node }

// NumInputs returns the number of input ports (network + injection).
func (r *Router) NumInputs() int { return len(r.in) }

// Lanes returns the number of lanes of input port in.
func (r *Router) Lanes(in int) int { return len(r.in[in].lanes) }

// Config returns a copy of the switch's configuration.
func (r *Router) Config() Config { return r.cfg }

// Depth returns the flit capacity of every input lane.
func (r *Router) Depth() int { return r.cfg.Depth }

// LaneFree returns the free space of the given input lane (the adapter's
// view of its own injection lanes).
func (r *Router) LaneFree(in, ln int) int {
	l := &r.in[in].lanes[ln]
	return int(l.depth - l.size)
}

// LaneLen returns the occupancy of the given input lane.
func (r *Router) LaneLen(in, ln int) int { return int(r.in[in].lanes[ln].size) }

// Push copies *s into an input lane (used by the upstream link and by the
// network adapter for injection ports). It reports false when the lane is
// full; callers must respect the credit/handshake and treat false as a
// protocol violation.
//
//quarc:hotpath
func (r *Router) Push(in, ln int, s *Slot) bool {
	p := &r.in[in]
	l := &p.lanes[ln]
	if l.size == l.depth {
		return false
	}
	if l.size == 0 {
		// A new head gives a parked port a lane it has not bid: it bids again.
		r.parked &^= 1 << uint(in)
	}
	at := l.head + l.size
	if at >= l.depth {
		at -= l.depth
	}
	r.slab[l.base+at] = *s
	l.size++
	p.count++
	r.occupied |= 1 << uint(in)
	r.buffered++
	return true
}

// MoveFlit returns the flit move m (committed by this switch this cycle)
// moved, in the slab slot Commit vacated. By the vacated-slot rule (see
// Router.slab) it is valid until the cycle's apply phase has finished; the
// network counts a forwarded flit's hop there before the push.
//
//quarc:hotpath
func (r *Router) MoveFlit(m *Move) *Slot { return &r.slab[m.Slot] }

// Quiescent reports whether the switch holds no flits at all. A quiescent
// router's cycle is a no-op apart from statistics accounting: it produces no
// bids and commits no moves until a flit is pushed in, so the network may
// skip stepping it entirely. Held output VCs
// (a lane mid-packet whose buffered flits all departed) do not block
// quiescence: they only matter once the next flit arrives, which wakes the
// router.
func (r *Router) Quiescent() bool { return r.buffered == 0 }

// Wedged reports whether nothing the switch holds can move until an event
// reaches it from outside: every occupied input port is parked, so it waits
// for a credit, the release of one of its output VCs or a flit pushed into
// one of its empty lanes. A drained switch is trivially wedged. It records the
// occupancy, the integrand Slept charges each cycle the network then skips
// stepping the switch.
func (r *Router) Wedged() bool {
	if r.occupied&^r.parked != 0 {
		return false
	}
	r.sleptOcc = uint64(r.buffered)
	return true
}

// Slept accounts k cycles the network skipped stepping this switch while it
// slept (Wedged held when it was put to sleep): the cycle count gains k and
// the occupancy integral k times the recorded occupancy, so MeanOccupancy and
// every per-cycle rate stay bit-identical to stepping it every cycle. The
// stalls its parked ports would have bid are charged by their own settlement,
// like any other parked cycle. It reports whether the switch slept holding
// flits.
func (r *Router) Slept(k uint64) (loaded bool) {
	r.stats.Cycles += k
	r.stats.OccupancySum += k * r.sleptOcc
	return r.sleptOcc != 0
}

// Sent returns the number of flits the given output port has transmitted
// (link-load accounting for the edge-symmetry analysis).
func (r *Router) Sent(out int) uint64 { return r.out[out].sent }

func (r *Router) reachable(o, in int) bool {
	if r.cfg.Reach == nil || r.cfg.Reach[o] == nil {
		return true
	}
	for _, x := range r.cfg.Reach[o] {
		if x == in {
			return true
		}
	}
	return false
}

// bidFor runs the VC arbiter of occupied input port i: select the lane
// presented to the crossbar this cycle, recorded in the port's bid.
//
//quarc:hotpath
func (r *Router) bidFor(i int) *bid {
	p := &r.in[i]
	l := int(p.rr)
	for p.lanes[l].size == 0 { // the port holds a flit, so some lane does
		if l++; l == len(p.lanes) {
			l = 0
		}
	}
	b := &p.bid
	b.lane = int8(l)
	b.dec = r.laneDecision(&p.lanes[l], i, l)
	return b
}

// laneDecision returns the routing decision governing the head flit of
// nonempty lane ln = (i, l): the FCU's latched decision for an active packet,
// or the cached (validated) route of the waiting header, whose requested
// downstream VC it caches beside it.
//
//quarc:hotpath
func (r *Router) laneDecision(ln *lane, i, l int) packedDec {
	if ln.active {
		return ln.dec
	}
	head := &r.slab[ln.headSlot()]
	if head.Kind != flit.Header {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("router %d in %d lane %d: %v flit with no active packet",
			r.cfg.Node, i, l, head.Kind))
	}
	if !ln.pendOK {
		dec, vc := r.Decide(i, l, r.pkts.Header(head), int(head.Hop))
		if vc >= 0 {
			ln.pendVC = int8(vc)
		}
		ln.pendDec, ln.pendOK = pack(dec), true
	}
	return ln.pendDec
}

// Decide is the switch's verdict on a header arriving in lane l of input
// port in, h its packet's record and hop its slot's hop count: its
// RouteFunc's decision, checked against the crossbar, and the virtual
// channel its VCFunc requests on a link the decision forwards over.
// The lane a flit sits in is the VC it used on its incoming link (the network
// pushes forwarded flits into lane[outVC]); injection ports have a single
// lane 0, matching the VC-0 start of the dateline discipline. vc is -1 when
// the decision forwards over no link: pure local delivery, or the shared
// ejection port, which takes the first free VC. It reads only the switch's
// configuration: the running switch decides a waiting header with it, and a
// static walk of the network's routes (network.Fabric.Walk) follows it.
func (r *Router) Decide(in, l int, h *Header, hop int) (dec Decision, vc int) {
	dec = r.cfg.Route(r.cfg.Node, in, *h, hop)
	if dec.Out == NoOutput && !dec.Eject {
		panic(fmt.Sprintf("router %d in %d: decision with no action for %+v", r.cfg.Node, in, *h))
	}
	if dec.Out == NoOutput && r.cfg.EjectPort != NoOutput {
		panic(fmt.Sprintf("router %d in %d: pure-local decision on a shared-eject switch", r.cfg.Node, in))
	}
	if dec.Out != NoOutput && !r.reachable(dec.Out, in) {
		panic(fmt.Sprintf("router %d: route sends input %d to unreachable output %d", r.cfg.Node, in, dec.Out))
	}
	if dec.Out == NoOutput || dec.Out == r.cfg.EjectPort {
		return dec, -1
	}
	vc = r.cfg.VCNext(r.cfg.Node, dec.Out, in, l)
	if vc < 0 || vc >= r.cfg.VCs {
		panic(fmt.Sprintf("router %d: VCNext returned %d", r.cfg.Node, vc))
	}
	return dec, vc
}

// ConnectOutput wires output o to a downstream input port of the given lane
// count and depth, arming one credit counter per lane at full depth. An output
// never connected is a sink with unlimited acceptance; the shared ejection
// port is always one (a header waiting there waits only for a VC).
func (r *Router) ConnectOutput(o, lanes, depth int) {
	if lanes < 1 || lanes > r.cfg.VCs || depth < 1 || depth > MaxDepth || o == r.cfg.EjectPort {
		panic(fmt.Sprintf("router %d out %d: cannot connect %d lanes of depth %d", r.cfg.Node, o, lanes, depth))
	}
	op := &r.out[o]
	op.depth = int16(depth)
	for vc := 0; vc < lanes; vc++ {
		op.credit[vc] = op.depth
	}
}

// Credit returns output o's counter for downstream lane vc (o connected).
func (r *Router) Credit(o, vc int) int { return int(r.out[o].credit[vc]) }

// ReturnCredit hands output o the credit of one flit popped from downstream
// lane vc. The network calls it when it applies the downstream switch's move.
// It reports whether the credit woke a parked input port (see wake).
//
//quarc:hotpath
func (r *Router) ReturnCredit(o, vc int) bool {
	op := &r.out[o]
	if op.credit[vc] >= op.depth {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("router %d out %d: credit overflow on VC %d", r.cfg.Node, o, vc))
	}
	op.credit[vc]++
	return op.creditWait != 0 && r.wake(o, vc, StallNoCredit, &op.creditWait)
}

// Arbitrate accounts one stepped cycle in the statistics and computes this
// router's moves for it, against its own lanes and credit counters only. It
// appends at most one move per input port, each naming its flit's slot at the
// head of its source lane; the network must call Commit exactly once with the
// same slice.
//
//quarc:hotpath
func (r *Router) Arbitrate(moves []Move) []Move {
	r.stats.OccupancySum += uint64(r.buffered)
	r.stats.Cycles++
	// A port woken since it parked is charged the cycles it sat out before
	// it bids again.
	for w := r.unsettled &^ r.parked; w != 0; w &= w - 1 {
		r.settle(bits.TrailingZeros64(w), r.stats.Cycles-1)
	}
	// VC arbitration: one candidate lane per occupied input port that is not
	// parked, in ascending port order (an empty port presents nothing).
	// Decisions with no forwarding component (Quarc all-port absorb;
	// laneDecision admits them only on dedicated-ejection switches) need no
	// OPC and always succeed, so they are granted here, in input order; the
	// rest are bucketed by the output they request.
	var requested uint64 // bit o set: output o has at least one bid
	for occ := r.occupied &^ r.parked; occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros64(occ)
		b := r.bidFor(i)
		o := b.dec.out()
		if o == NoOutput {
			moves = r.grant(moves, i, b, NoOutput, 0, true)
			continue
		}
		r.out[o].want |= 1 << uint(i)
		requested |= 1 << uint(o)
	}

	// OPC arbitration per requested output port, visiting only the inputs
	// that bid for it, in round-robin order from the master FSM's pointer.
	// The first sendable bid is granted; every other one stalls — classified
	// for the contention statistics as lost arbitration when it was sendable,
	// else by the blocking resource trySend names — and its VC arbiter yields
	// to the sibling lane (the paper's times_up timeout). A port whose bid
	// found no credit or VC parks if no other lane of it can send either.
	for ; requested != 0; requested &= requested - 1 {
		o := bits.TrailingZeros64(requested)
		op := &r.out[o]
		want := op.want
		op.want = 0
		served := false
		ahead := want >> uint(op.rr) << uint(op.rr) // inputs at or after the pointer go first
		for _, set := range [2]uint64{ahead, want &^ ahead} {
			for ; set != 0; set &= set - 1 {
				i := bits.TrailingZeros64(set)
				p := &r.in[i]
				b := &p.bid
				ok, outVC, cause := r.trySend(o, i, int(b.lane))
				if ok && !served {
					moves = r.grant(moves, i, b, o, outVC, b.dec.clone() || (o == r.cfg.EjectPort && b.dec.eject()))
					served = true
					// The master FSM moves on after serving a request.
					if op.rr = int16(i + 1); int(op.rr) == len(r.in) {
						op.rr = 0
					}
					continue
				}
				if ok {
					cause = StallArbLost
				}
				r.stats.Stalls[cause]++
				if len(p.lanes) > 1 {
					if p.rr = int32(b.lane) + 1; int(p.rr) == len(p.lanes) {
						p.rr = 0
					}
				}
				if !ok {
					r.park(i, int(b.lane), cause)
				}
			}
		}
	}
	return moves
}

// park takes input port i out of arbitration if none of its lanes can send:
// lane l has just failed for cause, and every other lane holding a flit fails
// for want of a credit or a VC too (every lane's head forwards, and trySend
// only reads state no move of this cycle has changed yet). Each parked lane
// keeps its cause, and the port is put on the wait list of every output a
// lane waits on. It stays parked, out of the occupancy scan, until the one
// event that can free it: a credit returned on that output and VC
// (ReturnCredit), the release of that output's VC (Commit), or a flit pushed
// into one of its empty lanes (Push).
//
//quarc:hotpath
func (r *Router) park(i, l int, cause StallCause) {
	p := &r.in[i]
	var lanes uint8
	for k := range p.lanes {
		ln := &p.lanes[k]
		if ln.size == 0 {
			continue
		}
		if k != l {
			o := r.laneDecision(ln, i, k).out()
			if o == NoOutput {
				return
			}
			ok, _, c := r.trySend(o, i, k)
			if ok {
				return
			}
			ln.waitCause = uint8(c)
		} else {
			ln.waitCause = uint8(cause)
		}
		lanes |= 1 << uint(k)
	}
	for m := lanes; m != 0; m &= m - 1 {
		ln := &p.lanes[bits.TrailingZeros8(m)]
		op := &r.out[ln.waitOut()]
		if StallCause(ln.waitCause) == StallNoCredit {
			op.creditWait |= 1 << uint(i)
		} else {
			op.vcWait |= 1 << uint(i)
		}
	}
	p.parkedLanes, p.parkedAt = lanes, r.stats.Cycles
	r.parked |= 1 << uint(i)
	r.unsettled |= 1 << uint(i)
}

// waitOut returns the output the lane's head forwards on: the FCU's latched
// decision for an active packet, else the waiting header's cached route.
func (ln *lane) waitOut() int {
	if ln.active {
		return ln.dec.out()
	}
	return ln.pendDec.out()
}

// wake unparks every port in *waiting with a parked lane that waits, for
// cause, on VC vc of output o: the VC the lane holds, the dateline VC its
// header requests, or — for a header bound for the shared ejection port — any
// VC of it. Ports that no longer wait on o for cause leave the list. It
// reports whether it unparked any port.
//
//quarc:hotpath
func (r *Router) wake(o, vc int, cause StallCause, waiting *uint64) (woke bool) {
	for w := *waiting; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		p := &r.in[i]
		hit, stay := false, false
		if r.parked&(1<<uint(i)) != 0 {
			for m := p.parkedLanes; m != 0 && !hit; m &= m - 1 {
				ln := &p.lanes[bits.TrailingZeros8(m)]
				if StallCause(ln.waitCause) != cause || ln.waitOut() != o {
					continue
				}
				v := ln.pendVC
				if ln.active {
					v = ln.outVC
				}
				hit = int(v) == vc || !ln.active && o == r.cfg.EjectPort
				stay = true
			}
		}
		if hit {
			r.parked &^= 1 << uint(i)
			woke = true
		}
		if hit || !stay {
			*waiting &^= 1 << uint(i)
		}
	}
	return woke
}

// settle charges input port i the cycles it sat out parked, through switch
// cycle upto, exactly as stepping every cycle would have: each cycle the VC arbiter
// selects the first parked lane at or after its pointer, charges that lane's
// recorded stall cause and moves past it, so the selections walk the parked
// lanes cyclically. A port no longer parked then leaves the unsettled set.
//
//quarc:hotpath
func (r *Router) settle(i int, upto uint64) {
	p := &r.in[i]
	if k := upto - p.parkedAt; k > 0 {
		var order [maxVCs]int // the parked lanes, from the pointer on, cyclically
		n := 0
		for j := range p.lanes {
			if l := (int(p.rr) + j) % len(p.lanes); p.parkedLanes&(1<<uint(l)) != 0 {
				order[n], n = l, n+1
			}
		}
		per, rem := k/uint64(n), k%uint64(n)
		for j, l := range order[:n] {
			cnt := per
			if uint64(j) < rem {
				cnt++
			}
			r.stats.Stalls[p.lanes[l].waitCause] += cnt
		}
		if len(p.lanes) > 1 {
			if p.rr = int32(order[(k-1)%uint64(n)] + 1); int(p.rr) == len(p.lanes) {
				p.rr = 0
			}
		}
	}
	p.parkedAt = upto
	if r.parked&(1<<uint(i)) == 0 {
		p.parkedLanes = 0
		r.unsettled &^= 1 << uint(i)
	}
}

// grant appends the move for input port i's winning bid. Every field of the appended Move
// is written, so a reused backing array needs no clearing first.
//
//quarc:hotpath
func (r *Router) grant(moves []Move, i int, b *bid, out, outVC int, deliver bool) []Move {
	n := len(moves)
	if n < cap(moves) {
		moves = moves[:n+1]
	} else {
		moves = append(moves, Move{})
	}
	m := &moves[n]
	m.In, m.Lane, m.Out, m.OutVC, m.Deliver = int8(i), b.lane, int8(out), int8(outVC), deliver
	m.Slot = int32(r.in[i].lanes[b.lane].headSlot())
	r.stats.Grants++
	return moves
}

// trySend checks credit and VC allocation for the head of lane (i, l) on
// output o. On failure it reports the blocking resource.
//
//quarc:hotpath
func (r *Router) trySend(o, i, l int) (bool, int, StallCause) {
	op := &r.out[o]
	ln := &r.in[i].lanes[l]
	if ln.active {
		// Body or tail: use the allocated VC; need one credit.
		vc := int(ln.outVC)
		if op.owner[vc] != int16(i*16+l) {
			//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
			panic(fmt.Sprintf("router %d out %d: lane %d.%d lost VC %d ownership",
				r.cfg.Node, o, i, l, vc))
		}
		if op.depth != 0 && op.credit[vc] < 1 {
			return false, 0, StallNoCredit
		}
		return true, vc, 0
	}
	// Header: the slave FSM allocates a downstream VC.
	vc := 0
	if o == r.cfg.EjectPort {
		// The PE-side buffers have no dateline constraint: first free VC.
		vc = -1
		for v := 0; v < r.cfg.VCs; v++ {
			if op.owner[v] == noOwner {
				vc = v
				break
			}
		}
		if vc < 0 {
			return false, 0, StallVCBusy
		}
	} else {
		// The waiting header's dateline VC, cached with its route.
		vc = int(ln.pendVC)
		if op.owner[vc] != noOwner {
			return false, 0, StallVCBusy
		}
	}
	if op.depth != 0 && op.credit[vc] < 1 {
		return false, 0, StallNoCredit
	}
	return true, vc, 0
}

// Commit applies previously computed moves: pops each moved flit from the
// head of its lane (vacating, not clearing, its slot), spends the credit of
// each forwarded one and updates FCU/OPC state; a tail's release of its VC
// wakes the ports parked waiting for it. The network then reads each moved
// flit through MoveFlit to push it downstream and deliver it, and returns
// each pop's credit upstream. Reports whether any move delivers.
//
//quarc:hotpath
func (r *Router) Commit(moves []Move) (delivers bool) {
	for mi := range moves {
		m := &moves[mi]
		delivers = delivers || m.Deliver
		p := &r.in[m.In]
		ln := &p.lanes[m.Lane]
		if ln.size == 0 || int(m.Slot) != ln.headSlot() {
			//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
			panic(fmt.Sprintf("router %d: commit desync at in %d lane %d", r.cfg.Node, m.In, m.Lane))
		}
		head := &r.slab[m.Slot]
		kind := head.Kind
		// FCU bookkeeping: the lane remembers its packet's decision from
		// header to tail, whether the packet is being forwarded or absorbed
		// locally.
		if kind == flit.Header {
			// The waiting header's cached route (computed here only for a
			// move Arbitrate did not make) becomes the FCU's binding.
			r.laneDecision(ln, int(m.In), int(m.Lane))
			ln.active = true
			ln.dec = ln.pendDec
			ln.pendOK = false
			ln.outVC = int8(m.OutVC)
		}
		if kind == flit.Tail {
			ln.active = false
			ln.outVC = -1
		}
		if ln.head++; ln.head == ln.depth {
			ln.head = 0
		}
		ln.size--
		if p.count--; p.count == 0 {
			r.occupied &^= 1 << uint(m.In)
		}
		r.buffered--
		// OPC bookkeeping only applies to granted outputs.
		if m.Out != NoOutput {
			op := &r.out[m.Out]
			op.sent++
			if op.depth != 0 {
				if op.credit[m.OutVC] < 1 {
					//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
					panic(fmt.Sprintf("router %d out %d: send without credit on VC %d", r.cfg.Node, m.Out, m.OutVC))
				}
				op.credit[m.OutVC]--
			}
			packed := int16(m.In)*16 + int16(m.Lane)
			if kind == flit.Header {
				op.owner[m.OutVC] = packed
			}
			if kind == flit.Tail {
				if op.owner[m.OutVC] != packed {
					//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
					panic(fmt.Sprintf("router %d: tail releasing foreign VC", r.cfg.Node))
				}
				op.owner[m.OutVC] = noOwner
				if op.vcWait != 0 {
					r.wake(int(m.Out), int(m.OutVC), StallVCBusy, &op.vcWait)
				}
			}
		}
	}
	return delivers
}

// LaneContents returns a copy of the slots buffered in the given input lane
// (head first). ok is false when the lane index is out of range; callers can
// iterate lanes until it turns false. Inspection hook for the invariant
// checker.
func (r *Router) LaneContents(in, lane int) (slots []Slot, ok bool) {
	if in < 0 || in >= len(r.in) {
		return nil, false
	}
	if lane < 0 || lane >= len(r.in[in].lanes) {
		return nil, false
	}
	ln := &r.in[in].lanes[lane]
	slots = make([]Slot, ln.size)
	for i := range slots {
		at := ln.head + int32(i)
		if at >= ln.depth {
			at -= ln.depth
		}
		slots[i] = r.slab[ln.base+at]
	}
	return slots, true
}
