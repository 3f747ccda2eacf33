// Package network assembles switches into a simulated NoC: it owns the
// wiring between output ports and downstream input ports, runs the global
// cycle, feeds network adapters, delivers ejected flits and tracks message
// lifecycles for the statistics layer.
//
// The fabric is topology-agnostic: a model package (internal/quarc,
// internal/spidergon, internal/ring, internal/mesh) is one switch
// configuration, one wiring function and one adapter constructor, which Build
// assembles. The network adapter is one component for all of them,
// BaseAdapter, parameterised by each model's injection rule; a model with
// hardware collectives (the Quarc's BRCP broadcast and multicast) overrides
// only those two sends.
//
// A cycle is two node-local passes around one apply step. Pass 1 visits each
// active node once — credit its slept cycles, arbitrate, commit — and touches
// only that node's switch: flow control is internal/router's sender-side
// credit counters, so no switch reads a neighbour. Apply carries every move's
// effects, split per move into an ordered half (deliver: the PE copy,
// reassembly, tracker, packet ids, the packet table — ascending node order)
// and a commutative half (link: credit returned upstream, multicast hop count,
// downstream push, wakes — integer adds and single-writer pushes, the same
// state in any order). Pass 2 feeds each node's adapter and decides whether
// it may sleep. SetStepWorkers shards all but the ordered half across a
// worker pool with byte-identical results (see parallel.go).
//
// Flits travel as 16-byte router.Slots. A packet's header record is kept
// once, in the fabric's packet table (Packets), from the adapter's enqueue
// until its tail leaves the network — delivered and not forwarded — when the
// ordered half frees its handle. A delivered flit is materialised from its
// slot and the table into fabric scratch, so adapters and the tracker see
// whole flit.Flits; routing, the walk and the trace read the table's header
// record and the slot instead.
//
// The message tracker keeps for each message class only what its completion
// needs. A unicast in flight is one bit in a sliding window over message ids:
// its one delivery completes it, and its record is built from the delivered
// tail flit, whose header fields name its source and generation cycle. A
// broadcast or multicast keeps a record and a delivered-node mask until its
// last destination is served.
//
// Stepping is activity-driven: the fabric keeps a set of active nodes (any
// buffered flit or pending source-queue backlog) and each cycle visits only
// those. Routers are woken by flits pushed into them and by adapter enqueues,
// and go to sleep when fully drained — or, under saturation, when blocked:
// every occupied input port of the switch is parked (internal/router) and the
// adapter cannot inject, so nothing can move until a credit returns that
// unparks a port, a flit arrives or a packet is enqueued (see sleepScan).
// Slept cycles are credited to their statistics in bulk, so the observable
// simulation — every flit movement, every counter — is bit-identical to
// stepping all N routers every cycle (SetDense selects that reference
// behaviour, and the experiment layer's equivalence suite proves the identity
// for every registered model; the parking rule both share is pinned by a
// parent-written golden of router statistics).
package network

import (
	"fmt"
	"math/bits"
	"runtime"

	"quarc/internal/flit"
	"quarc/internal/router"
	"quarc/internal/trace"
)

// PortRef identifies an input port of a node.
type PortRef struct {
	Node, Port int
}

// OutputWire describes where an output port leads: a downstream input port,
// or the local PE (shared ejection sinks).
type OutputWire struct {
	Sink bool
	Dst  PortRef
}

// Adapter is what the fabric drives at each node: a BaseAdapter, or a type
// embedding one to override its sends or its Receive. The fabric feeds,
// polls and walks from the node's BaseAdapter directly, and delivers through
// Receive.
type Adapter interface {
	// Receive consumes a flit delivered to the local PE. *f is the flit
	// materialised in the fabric's scratch: valid for the call, to be copied,
	// not kept.
	Receive(f *flit.Flit, now int64)
	// base returns the node's BaseAdapter.
	base() *BaseAdapter
}

// defaultStepGrain is the minimum active-set size before the worker pool is
// worth its barriers; below it the serial path is faster.
const defaultStepGrain = 48

// stepScratch is one worker's view of a cycle: the node range it owns, its
// counters and sleep candidates (folded into the fabric by the coordinator)
// and its outgoing mailboxes; the serial path is one scratch owning every
// node. The pad keeps workers' scratches off shared cache lines.
type stepScratch struct {
	lo, hi       int         // owned node range [lo, hi): whole activeMask words
	woken        int         // nodes reconciled out of sleep this cycle
	wokenBlocked int         // subset that slept blocked
	forwarded    uint64      // flits moved across links this cycle
	delivering   []int       // stepped nodes with a PE delivery among their moves, ascending
	sleptIdle    []int       // drained nodes leaving the step set
	sleptBlocked []int       // blocked nodes leaving the step set
	outbox       [][]linkRec // per destination shard: link effects parked for its owner (pool only)
	shardOf      []uint8     // activeMask word -> owning shard, shared by the pool's scratches
	_            [64]byte
}

// newStepScratch returns the scratch of the worker owning nodes [lo, hi).
func newStepScratch(lo, hi int) stepScratch {
	return stepScratch{lo: lo, hi: hi,
		delivering:   make([]int, 0, hi-lo),
		sleptIdle:    make([]int, 0, hi-lo),
		sleptBlocked: make([]int, 0, hi-lo)}
}

// feederRef names the one output wired to an input port (node -1: injection).
type feederRef struct{ node, out int32 }

// linkRec is one link effect aimed at a node: the push of *s into input lane
// (port, vc) when s is non-nil, else one credit for output counter (port, vc).
// s points at the slot the flit's move vacated in the sending switch.
type linkRec struct {
	node     int32
	port, vc int16
	s        *router.Slot
}

// Fabric is the assembled network.
type Fabric struct {
	N        int
	Routers  []*router.Router
	Adapters []Adapter
	bases    []*BaseAdapter // each node's BaseAdapter, resolved by SetAdapter
	Tracker  *Tracker
	// Packets is the packet table every switch and source queue of the
	// fabric resolves its slots in (see the package comment).
	Packets *router.Packets
	// Trace, when non-nil, records flit-level forward/deliver events.
	Trace *trace.Buffer

	wires    [][]OutputWire  // [node][out]
	injStart int             // first injection port index
	moves    [][]router.Move // per node: room for one move per input port, reused every cycle
	nmoves   []int32         // per node: moves of its latest step, the live prefix of moves[node]
	cycle    int64
	pktSeq   uint64
	msgSeq   uint64
	rx       flit.Flit // the delivered flit, materialised for the PE

	// Activity scheduling state.
	activeMask []uint64 // bit per node: stepped next cycle
	stepList   []int    // scratch: nodes stepped this cycle, ascending
	idleSince  []int64  // first un-stepped cycle while asleep; -1 when awake
	sleepMask  []uint64 // bit per node: asleep (either kind)
	sleeping   int      // nodes currently asleep (either kind)
	dense      bool     // reference mode: step every router every cycle

	// The wiring inverted: where a pop's credit goes, and whom it may wake.
	feeder [][]feederRef // [node][in]

	// Blocked-sleep state (the dependency wake graph).
	blockedMask     []uint64 // bit per node: asleep blocked (an asleep node without it sleeps idle)
	blockedSleeping int      // nodes currently in blocked sleep
	blockedSleeps   uint64   // cumulative blocked-sleep entries (diagnostic)

	// Intra-cycle parallelism.
	scr       stepScratch // serial-path scratch
	stepGrain int         // min active nodes before the pool engages
	pool      *stepPool   // nil: serial stepping

	delivered uint64 // flits delivered to PEs
	forwarded uint64 // flits crossing links
	stepped   uint64 // router-steps executed (activity diagnostic)
}

// Build assembles an n-node fabric: the n switches of router.NewSet(n, sw),
// each output port wired as wires(node) says (one OutputWire per output), the
// input ports from injStart up injection ports (those below are network
// inputs, whose multicast bitstrings shift on forward), and at each node the
// adapter adapter(node, its switch) returns. It is how every model builds its
// network.
func Build[A Adapter](n int, sw router.Config, injStart int, wires func(node int) []OutputWire,
	adapter func(node int, r *router.Router) A) (*Fabric, []A, error) {
	if sw.Depth < 1 || sw.Depth > router.MaxDepth {
		return nil, nil, fmt.Errorf("network: buffer depth %d outside [1,%d]", sw.Depth, router.MaxDepth)
	}
	f := newFabric(router.NewSet(n, sw), injStart, wires)
	as := make([]A, n)
	for node := range as {
		as[node] = adapter(node, f.Routers[node])
		f.SetAdapter(node, as[node])
	}
	return f, as, nil
}

// newFabric assembles a fabric from the switches of one router.NewSet, whose
// packet table it adopts, wired by wires (see Build); it installs no adapters.
func newFabric(routers []*router.Router, injStart int, wires func(node int) []OutputWire) *Fabric {
	n := len(routers)
	f := &Fabric{
		N:           n,
		Routers:     routers,
		Adapters:    make([]Adapter, n),
		bases:       make([]*BaseAdapter, n),
		Tracker:     NewTracker(),
		Packets:     routers[0].Packets(),
		wires:       make([][]OutputWire, n),
		injStart:    injStart,
		moves:       make([][]router.Move, n),
		nmoves:      make([]int32, n),
		activeMask:  make([]uint64, (n+63)/64),
		stepList:    make([]int, 0, n),
		idleSince:   make([]int64, n),
		sleepMask:   make([]uint64, (n+63)/64),
		blockedMask: make([]uint64, (n+63)/64),
		stepGrain:   defaultStepGrain,
	}
	f.scr = newStepScratch(0, n)
	// Every node starts awake (matching a dense cycle 0); empty routers go
	// quiescent after their first step.
	for node := 0; node < n; node++ {
		f.activeMask[node>>6] |= 1 << uint(node&63)
		f.idleSince[node] = -1
	}
	f.feeder = make([][]feederRef, n)
	inputs := 0
	for _, r := range routers {
		inputs += r.NumInputs()
	}
	// Arbitrate grants at most one move per input port, so each node's
	// window of one slab never grows.
	moves := make([]router.Move, inputs)
	feeders := make([]feederRef, inputs)
	for node, r := range routers {
		k := r.NumInputs()
		f.moves[node], moves = moves[:0:k], moves[k:]
		f.feeder[node], feeders = feeders[:k:k], feeders[k:]
		for i := range f.feeder[node] {
			f.feeder[node][i].node = -1
		}
	}
	for node := range routers {
		f.wires[node] = wires(node)
		for o, w := range f.wires[node] {
			if w.Sink {
				continue // never connected: the PE absorbs at link rate
			}
			if w.Dst.Node < 0 || w.Dst.Node >= n {
				panic(fmt.Sprintf("network: wire %d.%d to bad node %d", node, o, w.Dst.Node))
			}
			// A pop at input port (dst, port) returns its credit to exactly
			// one sender, so the port must have exactly one feeder.
			fd := &f.feeder[w.Dst.Node][w.Dst.Port]
			if fd.node >= 0 {
				panic(fmt.Sprintf("network: outputs %d.%d and %d.%d both feed input %d.%d",
					fd.node, fd.out, node, o, w.Dst.Node, w.Dst.Port))
			}
			*fd = feederRef{int32(node), int32(o)}
			down := routers[w.Dst.Node]
			routers[node].ConnectOutput(o, down.Lanes(w.Dst.Port), down.Depth())
		}
	}
	return f
}

// SetAdapter installs the network adapter of a node and gives its
// BaseAdapter the fabric, through which its enqueues wake the node. All nodes
// must have one before stepping.
func (f *Fabric) SetAdapter(node int, a Adapter) {
	b := a.base()
	if b.Node != node {
		panic(fmt.Sprintf("network: adapter for node %d installed at node %d", b.Node, node))
	}
	b.Fab = f
	f.Adapters[node], f.bases[node] = a, b
}

// SetDense switches the fabric to the dense reference behaviour: every
// router stepped every cycle, no sleeping. It exists so the activity-driven
// scheduler can be proved bit-identical against it; call it before the first
// Step.
func (f *Fabric) SetDense(dense bool) {
	if f.cycle != 0 {
		panic("network: SetDense after stepping began")
	}
	f.dense = dense
}

// DefaultStepWorkers returns the worker count used when a configuration does
// not pin one: GOMAXPROCS, clamped like any other count.
func DefaultStepWorkers(n int) int { return clampStepWorkers(runtime.GOMAXPROCS(0), n) }

// clampStepWorkers bounds a worker count for an n-node fabric: a shard is a
// run of whole 64-node activeMask words (so every wake bit has one owner) and
// must hold at least one full word. Fabrics under 128 nodes step serially.
func clampStepWorkers(w, n int) int {
	return max(1, min(w, n/64, 255)) // shard ids are bytes
}

// SetStepWorkers sizes the fabric's intra-cycle worker pool: a count that
// clamps to 1 steps serially, larger values give each of w goroutines (the
// caller counts as one) a fixed shard of the nodes. Results are byte-identical
// at any value. The pool is persistent: Close the fabric when done. Calling
// SetStepWorkers again replaces the pool.
func (f *Fabric) SetStepWorkers(w int) {
	f.Close()
	if w = clampStepWorkers(w, f.N); w > 1 {
		f.pool = newStepPool(f, w)
	}
}

// SetStepGrain overrides the minimum active-set size at which the worker
// pool engages (default 48). Test hook: a nearly idle fabric can force the
// parallel path to prove invariance.
func (f *Fabric) SetStepGrain(minActive int) {
	if minActive < 1 {
		minActive = 1
	}
	f.stepGrain = minActive
}

// Close releases the worker pool, if any. The fabric remains usable (it
// steps serially afterwards). Safe to call multiple times.
func (f *Fabric) Close() {
	if f.pool != nil {
		f.pool.close()
		f.pool = nil
	}
}

// Now returns the current cycle.
func (f *Fabric) Now() int64 { return f.cycle }

// NextPktID returns a fresh packet identifier.
func (f *Fabric) NextPktID() uint64 { f.pktSeq++; return f.pktSeq }

// NextMsgID returns a fresh message identifier.
func (f *Fabric) NextMsgID() uint64 { f.msgSeq++; return f.msgSeq }

// FlitsDelivered returns the total flits handed to PEs.
func (f *Fabric) FlitsDelivered() uint64 { return f.delivered }

// FlitsForwarded returns the total flits that crossed links (including
// injection links).
func (f *Fabric) FlitsForwarded() uint64 { return f.forwarded }

// SteppedRouters returns the cumulative number of router-steps executed.
// Dense stepping performs N per cycle; the ratio of this counter to N*Now()
// is the activity factor the scheduler exploited.
func (f *Fabric) SteppedRouters() uint64 { return f.stepped }

// BlockedSleeps returns how many times a router entered blocked sleep (every
// occupied input port parked). Diagnostic for the saturation regime, where
// idle sleep never fires.
func (f *Fabric) BlockedSleeps() uint64 { return f.blockedSleeps }

// ActiveNodes returns how many nodes are in the step set for the next cycle.
func (f *Fabric) ActiveNodes() int {
	total := 0
	for _, w := range f.activeMask {
		total += bits.OnesCount64(w)
	}
	return total
}

// Idle reports whether the step set is empty: no router holds a flit and no
// source queue has backlog, so nothing can happen until new traffic is
// enqueued. The fabric clock may fast-forward over idle stretches with
// AdvanceIdle. Blocked-sleeping routers hold flits, so they keep the fabric
// non-idle even though they are out of the step set.
func (f *Fabric) Idle() bool {
	if f.blockedSleeping != 0 {
		return false
	}
	for _, w := range f.activeMask {
		if w != 0 {
			return false
		}
	}
	return true
}

// asleepBlocked reports whether node sleeps blocked.
//
//quarc:hotpath
func (f *Fabric) asleepBlocked(node int) bool {
	return f.blockedMask[node>>6]&(1<<uint(node&63)) != 0
}

// wake puts a node back into the step set. Slept cycles are reconciled into
// its statistics when it is next stepped.
func (f *Fabric) wake(node int) {
	f.activeMask[node>>6] |= 1 << uint(node&63)
}

// SyncStats brings the cycle counters of sleeping routers up to the current
// cycle, as if each had been stepped every cycle — idle sleepers empty,
// blocked sleepers at the occupancy they slept with (their parked ports'
// stalls are settled when Router.Stats is read). It is idempotent at a given
// cycle; RouterStats calls it implicitly, and tests comparing per-router
// statistics against dense stepping call it first.
func (f *Fabric) SyncStats() {
	for node, since := range f.idleSince {
		if since >= 0 && since < f.cycle {
			k := uint64(f.cycle - since)
			if f.asleepBlocked(node) {
				f.Routers[node].ReplayBlockedCycles(k)
			} else {
				f.Routers[node].AddIdleCycles(k)
			}
			f.idleSince[node] = f.cycle
		}
	}
}

// RouterStats aggregates the microarchitectural counters of all switches:
// total grants, stalls by cause, and the network-wide buffer-occupancy
// integral.
func (f *Fabric) RouterStats() router.Stats {
	f.SyncStats()
	var agg router.Stats
	for _, r := range f.Routers {
		s := r.Stats()
		agg.Grants += s.Grants
		agg.OccupancySum += s.OccupancySum
		agg.Cycles += s.Cycles
		for i := range s.Stalls {
			agg.Stalls[i] += s.Stalls[i]
		}
	}
	return agg
}

// LinkLoad returns the per-output-port flit counts, indexed [node][out], for
// the edge-load-balance analysis (§2.1: Spidergon's edge asymmetry).
func (f *Fabric) LinkLoad() [][]uint64 {
	out := make([][]uint64, f.N)
	for node, r := range f.Routers {
		out[node] = make([]uint64, len(f.wires[node]))
		for o := range f.wires[node] {
			out[node][o] = r.Sent(o)
		}
	}
	return out
}

// latch freezes the step set for the next cycle: wakes during a cycle
// (commit pushes, adapter enqueues) take effect the following cycle, exactly
// when a dense step would first observe the new flit. Single-threaded,
// between cycles.
//
//quarc:hotpath
func (f *Fabric) latch() {
	list := f.stepList[:0]
	if f.dense {
		for node := 0; node < f.N; node++ {
			list = append(list, node)
		}
	} else {
		for wi, word := range f.activeMask {
			base := wi << 6
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				list = append(list, base+b)
			}
		}
	}
	f.stepList = list
	f.stepped += uint64(len(list))
}

// reconcile credits a newly woken router with the cycles it slept. Touches
// only the node's own state.
//
//quarc:hotpath
func (f *Fabric) reconcile(node int, sc *stepScratch) {
	if f.idleSince[node] < 0 {
		return
	}
	k := uint64(f.cycle - f.idleSince[node])
	f.sleepMask[node>>6] &^= 1 << uint(node&63)
	if f.asleepBlocked(node) {
		f.Routers[node].ReplayBlockedCycles(k)
		f.blockedMask[node>>6] &^= 1 << uint(node&63)
		sc.wokenBlocked++
	} else {
		f.Routers[node].AddIdleCycles(k)
	}
	f.idleSince[node] = -1
	sc.woken++
}

// pass1 is the first node-local pass over a shard of the step list: each
// node is credited its slept cycles, arbitrates and commits in one visit.
// Nodes whose moves include a PE delivery are recorded for the ordered half.
//
//quarc:hotpath
func (f *Fabric) pass1(list []int, sc *stepScratch) {
	sc.delivering = sc.delivering[:0]
	for _, node := range list {
		f.reconcile(node, sc)
		r := f.Routers[node]
		moves := r.Arbitrate(f.moves[node])
		f.nmoves[node] = int32(len(moves))
		if r.Commit(moves) {
			sc.delivering = append(sc.delivering, node)
		}
	}
}

// movesOf returns the moves node committed in the current cycle.
//
//quarc:hotpath
func (f *Fabric) movesOf(node int) []router.Move {
	return f.moves[node][:f.nmoves[node]]
}

// deliver is the ordered half of applying move m of node: the PE copy goes
// through reassembly to the tracker, and a completed packet may allocate
// packet ids and queue a retransmission. A tail that is delivered and not
// forwarded leaves the network, and its packet leaves the table.
// Single-threaded, ascending node order: this is the simulation's event
// order, and with the batch hook the only writer of the packet table.
//
//quarc:hotpath
func (f *Fabric) deliver(node int, m *router.Move) {
	f.delivered++
	s := f.Routers[node].MoveFlit(m)
	if f.Trace != nil {
		f.record(trace.Deliver, node, -1, -1, s)
	}
	//quarc:allow hotpath: the delivered flit is materialised once per delivery, into scratch the ordered half owns
	f.rx = f.Packets.Flit(s)
	f.Adapters[node].Receive(&f.rx, f.cycle)
	if s.Kind == flit.Tail && (m.Out == router.NoOutput || f.wires[node][m.Out].Sink) {
		f.Packets.Free(s.Pkt)
	}
}

// record traces one flit event. A traced fabric steps serially, so the slot's
// packet is still in the table.
func (f *Fabric) record(kind trace.Kind, node, out, vc int, s *router.Slot) {
	h := f.Packets.Header(s)
	f.Trace.Record(trace.Event{Cycle: f.cycle, Kind: kind, Node: node, Out: out, VC: vc,
		PktID: h.PktID, MsgID: h.MsgID, Seq: int(s.Seq)})
}

// link is the commutative half of applying move m of node: the pop's credit
// goes back to the lane's feeder, and a forwarded flit counts its hop and is
// pushed downstream. Effects on the calling worker's own nodes apply at once,
// the rest are posted to their owner, and the pushed flit is read in the slot
// its move vacated (router.Router.MoveFlit), valid until apply has finished.
//
//quarc:hotpath
func (f *Fabric) link(node int, m *router.Move, sc *stepScratch) {
	if fd := f.feeder[node][m.In]; fd.node >= 0 {
		f.send(sc, linkRec{node: fd.node, port: int16(fd.out), vc: int16(m.Lane)})
	}
	if m.Out == router.NoOutput {
		return
	}
	w := f.wires[node][m.Out]
	if w.Sink {
		return // shared ejection port: consumed by the PE
	}
	s := f.Routers[node].MoveFlit(m)
	if int(m.In) < f.injStart && s.Hop < 64 {
		// Multicast bitstrings are hop-indexed: forwarding from a network
		// input moves the stream one hop, so the hardware shifts the
		// bitstring (bit 0 always means "the node this flit is arriving
		// at"). The vacated slot holds the flit in flight — any local
		// delivery has already read it — so its hop is counted where it
		// lies; past 64 hops the shifted bitstring is zero.
		s.Hop++
	}
	sc.forwarded++
	if f.Trace != nil {
		f.record(trace.Forward, node, int(m.Out), int(m.OutVC), s)
	}
	f.send(sc, linkRec{node: int32(w.Dst.Node), port: int16(w.Dst.Port), vc: int16(m.OutVC), s: s})
}

// send applies r if its node belongs to the calling worker, else posts it.
//
//quarc:hotpath
func (f *Fabric) send(sc *stepScratch, r linkRec) {
	if node := int(r.node); node < sc.lo || node >= sc.hi {
		sc.post(r)
		return
	}
	f.applyLink(r)
}

// applyLink lands one link effect on its node. Only the node's owner calls
// it: the lane, the counter and the wake bit it touches are the owner's.
//
//quarc:hotpath
func (f *Fabric) applyLink(r linkRec) {
	node := int(r.node)
	if r.s == nil {
		// A credit that unparks a port is an event a blocked sleeper waits for.
		if f.Routers[node].ReturnCredit(int(r.port), int(r.vc)) {
			f.wake(node)
		}
		return
	}
	if !f.Routers[node].Push(int(r.port), int(r.vc), r.s) {
		//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
		panic(fmt.Sprintf("network: credit violation pushing into %d.%d vc %d", node, r.port, r.vc))
	}
	f.wake(node)
}

// pass2 is the second node-local pass: the adapter refills its injection
// lanes, then sleepScan decides whether the node leaves the step set.
//
//quarc:hotpath
func (f *Fabric) pass2(list []int, sc *stepScratch) {
	for _, node := range list {
		f.bases[node].Feed(f.cycle)
		if !f.dense {
			f.sleepScan(node, sc)
		}
	}
	// A sleeper woken during this cycle's apply is fed now, as it would be
	// had it been stepped: a delivery's callback may have enqueued a packet
	// at it. (It slept drained or unable to inject, and only an enqueue
	// changes that while it sleeps.)
	for w := sc.lo >> 6; w < (sc.hi+63)>>6; w++ {
		for woke := f.activeMask[w] & f.sleepMask[w]; woke != 0; woke &= woke - 1 {
			f.bases[w<<6|bits.TrailingZeros64(woke)].Feed(f.cycle)
		}
	}
}

// sleepScan decides whether a just-stepped node can leave the step set:
// drained nodes sleep idle; a node whose switch is blocked (every occupied
// input port parked, waiting for a credit, a VC or a flit) and whose adapter
// cannot inject sleeps blocked. Candidates are recorded in scratch; fold
// commits them. It reads only the node's own switch and adapter, and a
// sleeping switch needs nothing refreshed: nobody reads it.
//
//quarc:hotpath
func (f *Fabric) sleepScan(node int, sc *stepScratch) {
	r, a := f.Routers[node], f.bases[node]
	if r.Quiescent() {
		if a.Backlog() == 0 {
			sc.sleptIdle = append(sc.sleptIdle, node)
		}
		return
	}
	if !r.Blocked() {
		return
	}
	if a.Backlog() > 0 && !a.FeedBlocked() {
		return
	}
	sc.sleptBlocked = append(sc.sleptBlocked, node)
}

// fold closes the cycle for one scratch: its counters join the fabric totals
// and its sleep candidates leave the step set. Single-threaded; scratches are
// disjoint and every mutation commutes, so fold order does not matter.
//
//quarc:hotpath
func (f *Fabric) fold(sc *stepScratch) {
	f.sleeping -= sc.woken
	f.blockedSleeping -= sc.wokenBlocked
	f.forwarded += sc.forwarded
	sc.woken, sc.wokenBlocked, sc.forwarded = 0, 0, 0
	for _, node := range sc.sleptIdle {
		f.activeMask[node>>6] &^= 1 << uint(node&63)
		f.sleepMask[node>>6] |= 1 << uint(node&63)
		f.idleSince[node] = f.cycle + 1
		f.sleeping++
	}
	sc.sleptIdle = sc.sleptIdle[:0]
	for _, node := range sc.sleptBlocked {
		f.activeMask[node>>6] &^= 1 << uint(node&63)
		f.sleepMask[node>>6] |= 1 << uint(node&63)
		f.idleSince[node] = f.cycle + 1
		f.blockedMask[node>>6] |= 1 << uint(node&63)
		f.sleeping++
		f.blockedSleeping++
		f.blockedSleeps++
	}
	sc.sleptBlocked = sc.sleptBlocked[:0]
}

// stepSerial runs one latched cycle on the calling goroutine: the pool's
// phases over one shard that owns every node, both halves of a move applied
// together (the order Trace records).
//
//quarc:hotpath
func (f *Fabric) stepSerial(list []int) {
	sc := &f.scr
	f.pass1(list, sc)
	for _, node := range list {
		moves := f.movesOf(node)
		for i := range moves {
			if moves[i].Deliver {
				f.deliver(node, &moves[i])
			}
			f.link(node, &moves[i], sc)
		}
	}
	f.pass2(list, sc)
	f.fold(sc)
}

// Step advances the network by one cycle, visiting only active routers.
//
//quarc:hotpath
func (f *Fabric) Step() {
	f.StepBatch(1, nil)
}

// StepBatch advances the network by up to n cycles, returning how many ran.
// hook, when non-nil, runs before each cycle — between cycles, never
// mid-cycle — and a true return halts the batch before that cycle. It is the
// batch's window onto the outside world: it may enqueue traffic on any
// adapter and observe the fabric, exactly as a caller could between two Step
// calls, and the wakes its enqueues cause are latched for the cycle it
// precedes. The experiment layer's clock loop fires the event calendar from
// it, so a stretch with live traffic sources is one batch.
//
// Cycles run on the worker pool when one is installed and the active set is
// large enough, one dispatch covering the run for as long as it stays that
// large (waking the helpers costs more than a cycle). The pool runs the hook
// in worker 0's closing section, while the helpers wait at the barrier, so
// the hook sees a settled fabric and touches it alone. A traced fabric always
// steps serially: the trace records the serial event order.
//
//quarc:hotpath
func (f *Fabric) StepBatch(n int64, hook func() bool) int64 {
	done := int64(0)
	latched := false
	for done < n {
		if !latched {
			if hook != nil && hook() {
				return done
			}
			f.latch()
		}
		latched = false
		if f.pool != nil && f.Trace == nil && len(f.stepList) >= f.stepGrain {
			ran, latchedNext, stopped := f.pool.run(n-done, hook)
			done += ran
			latched = latchedNext
			if stopped {
				return done
			}
		} else {
			f.stepSerial(f.stepList)
			f.cycle++
			done++
		}
	}
	return done
}

// AdvanceIdle fast-forwards the fabric clock over cycles during which every
// router is verifiably empty: sleeping-router statistics are reconciled
// lazily, so the whole skip is O(1) regardless of length. It is only legal
// while every node is asleep and drained (nodes woken by pending source
// enqueues are fine: their flits cannot enter a router before the next
// Step). An idle cycle only advances the clock, so the experiment layer's
// clock loop calls it to jump from one calendar event to the next without
// simulating the empty cycles between.
func (f *Fabric) AdvanceIdle(cycles int64) {
	if cycles < 0 {
		panic("network: negative idle advance")
	}
	if cycles == 0 {
		return
	}
	if f.sleeping != f.N {
		panic(fmt.Sprintf("network: AdvanceIdle with %d of %d routers awake",
			f.N-f.sleeping, f.N))
	}
	if f.blockedSleeping != 0 {
		panic(fmt.Sprintf("network: AdvanceIdle with %d routers blocked", f.blockedSleeping))
	}
	f.cycle += cycles
}
