// Package network assembles switches into a simulated NoC: it owns the
// wiring between output ports and downstream input ports, runs the global
// cycle, feeds network adapters, delivers ejected flits and tracks message
// lifecycles for the statistics layer.
//
// The fabric is topology-agnostic: the model packages (internal/quarc,
// internal/spidergon, internal/ring, internal/mesh) provide router
// configurations and wiring tables. The network adapter is one component for
// all of them, BaseAdapter, parameterised by each model's injection rule; a
// model with hardware collectives (the Quarc's BRCP broadcast and multicast)
// overrides only those two sends.
//
// A cycle is two node-local passes around one apply step. Pass 1 visits each
// active node once — credit its slept cycles, arbitrate, commit — and touches
// only that node's switch: flow control is internal/router's sender-side
// credit counters, so no switch reads a neighbour. Apply carries every move's
// effects, split per move into an ordered half (deliver: the PE copy,
// reassembly, tracker, packet ids — ascending node order) and a commutative
// half (link: credit returned upstream, multicast bit shift, downstream push,
// wakes — integer adds and single-writer pushes, the same state in any
// order). Pass 2 feeds each node's adapter and decides whether it may sleep.
// SetStepWorkers shards all but the ordered half across a worker pool with
// byte-identical results (see parallel.go).
//
// Stepping is activity-driven: the fabric keeps a set of active nodes (any
// buffered flit or pending source-queue backlog) and each cycle visits only
// those. Routers are woken by flits pushed into them and by adapter enqueues,
// and go to sleep when fully drained — or, under saturation, when provably
// blocked (buffered flits but no possible move until a downstream credit
// returns; see sleepScan); slept cycles are credited to their statistics in
// bulk, so the observable simulation — every flit movement, every counter —
// is bit-identical to stepping all N routers every cycle (SetDense selects
// that reference behaviour, and the experiment layer's equivalence suite
// proves the identity for every registered model).
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

// Adapter is what the fabric drives at each node — in every registered model
// a BaseAdapter: it feeds injection lanes and consumes delivered flits.
type Adapter interface {
	// Feed may push at most one flit per injection port into its router's
	// injection lanes. Called once per cycle after commits.
	Feed(now int64)
	// Receive consumes a flit delivered to the local PE.
	Receive(f flit.Flit, now int64)
	// Backlog returns the flits still waiting in the adapter's source
	// queues; the fabric consults it before putting a drained router to
	// sleep, so it must be cheap (O(1) for BaseAdapter).
	Backlog() int
}

// binder is implemented by adapters (BaseAdapter and anything embedding it)
// that hold their fabric: SetAdapter installs it so source-queue enqueues can
// reactivate a sleeping node. Adapters that do not implement it are never put
// to sleep.
type binder interface {
	bind(fab *Fabric, node int)
}

// feedBlocked is implemented by adapters that can report whether Feed is
// unable to inject a single flit (every backlogged source queue faces a full
// injection lane). Required for blocked sleep: a node with backlog may only
// sleep while its adapter provably cannot make progress either.
type feedBlocked interface {
	FeedBlocked() bool
}

// Node sleep states.
const (
	sleepNone    uint8 = iota // awake
	sleepIdle                 // drained: no flits, no backlog
	sleepBlocked              // frozen: buffered flits, no possible move
)

// blockedSleepAfter is how many consecutive grantless busy cycles a node
// must accumulate before the fabric pays for the frozen-state probe. Cheap
// transient contention never reaches the probe.
const blockedSleepAfter = 4

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
	sleptBlocked []int       // frozen nodes leaving the step set
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

// linkRec is one link effect aimed at a node: the push of *f into input lane
// (port, vc) when f is non-nil, else one credit for output counter (port, vc).
type linkRec struct {
	node     int32
	port, vc int16
	f        *flit.Flit
}

// Fabric is the assembled network.
type Fabric struct {
	N        int
	Routers  []*router.Router
	Adapters []Adapter
	Tracker  *Tracker
	// Trace, when non-nil, records flit-level forward/deliver events.
	Trace *trace.Buffer

	wires    [][]OutputWire  // [node][out]
	injStart []int           // first injection port index per node
	moves    [][]router.Move // scratch, reused
	cycle    int64
	pktSeq   uint64
	msgSeq   uint64

	// Activity scheduling state.
	activeMask []uint64 // bit per node: stepped next cycle
	stepList   []int    // scratch: nodes stepped this cycle, ascending
	idleSince  []int64  // first un-stepped cycle while asleep; -1 when awake
	canSleep   []bool   // adapter supports wake-on-enqueue
	sleeping   int      // nodes currently asleep (either kind)
	dense      bool     // reference mode: step every router every cycle

	// The wiring inverted: where a pop's credit goes, and whom it may wake.
	feeder [][]feederRef // [node][in]

	// Blocked-sleep state (the dependency wake graph).
	sleepKind       []uint8       // per node: sleepNone/sleepIdle/sleepBlocked
	noGrant         []uint8       // consecutive grantless busy cycles
	feedBlk         []feedBlocked // adapters' FeedBlocked hooks, nil when unsupported
	blockedSleeping int           // nodes currently in blocked sleep
	blockedSleeps   uint64        // cumulative blocked-sleep entries (diagnostic)

	// Intra-cycle parallelism.
	scr       stepScratch // serial-path scratch
	stepGrain int         // min active nodes before the pool engages
	pool      *stepPool   // nil: serial stepping

	delivered uint64 // flits delivered to PEs
	forwarded uint64 // flits crossing links
	stepped   uint64 // router-steps executed (activity diagnostic)
}

// New assembles a fabric. wires[node][out] must describe every output port
// of every router; injStart[node] is the index of the first injection input
// port of node (ports below it are network inputs whose multicast bitstrings
// shift on forward).
func New(routers []*router.Router, wires [][]OutputWire, injStart []int) *Fabric {
	n := len(routers)
	if len(wires) != n || len(injStart) != n {
		panic("network: inconsistent fabric tables")
	}
	f := &Fabric{
		N:          n,
		Routers:    routers,
		Adapters:   make([]Adapter, n),
		Tracker:    NewTracker(),
		wires:      wires,
		injStart:   injStart,
		moves:      make([][]router.Move, n),
		activeMask: make([]uint64, (n+63)/64),
		stepList:   make([]int, 0, n),
		idleSince:  make([]int64, n),
		canSleep:   make([]bool, n),
		sleepKind:  make([]uint8, n),
		noGrant:    make([]uint8, n),
		feedBlk:    make([]feedBlocked, n),
		stepGrain:  defaultStepGrain,
	}
	f.scr = newStepScratch(0, n)
	// Every node starts awake (matching a dense cycle 0); empty routers go
	// quiescent after their first step.
	for node := 0; node < n; node++ {
		f.activeMask[node>>6] |= 1 << uint(node&63)
		f.idleSince[node] = -1
	}
	f.feeder = make([][]feederRef, n)
	for node, r := range routers {
		f.feeder[node] = make([]feederRef, r.NumInputs())
		for i := range f.feeder[node] {
			f.feeder[node][i].node = -1
		}
	}
	for node, ws := range wires {
		for o, w := range ws {
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

// SetAdapter installs the network adapter of a node. All nodes must have one
// before stepping.
func (f *Fabric) SetAdapter(node int, a Adapter) {
	f.Adapters[node] = a
	if b, ok := a.(binder); ok {
		b.bind(f, node)
		f.canSleep[node] = true
		f.feedBlk[node], _ = a.(feedBlocked)
	} else {
		// An adapter without wake plumbing cannot reactivate its node on
		// enqueue, so the node must stay in the step set forever.
		f.canSleep[node] = false
		f.feedBlk[node] = nil
	}
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

// BlockedSleeps returns how many times a router entered blocked sleep
// (frozen with buffered flits). Diagnostic for the saturation regime, where
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

// wake puts a node back into the step set. Slept cycles are reconciled into
// its statistics when it is next stepped.
func (f *Fabric) wake(node int) {
	f.activeMask[node>>6] |= 1 << uint(node&63)
}

// SyncStats brings the cycle counters of sleeping routers up to the current
// cycle, as if each had been stepped every cycle — idle sleepers empty,
// blocked sleepers replaying their frozen stall profile. It is idempotent at
// a given cycle; RouterStats calls it implicitly, and tests comparing
// per-router statistics against dense stepping call it first.
func (f *Fabric) SyncStats() {
	for node, since := range f.idleSince {
		if since >= 0 && since < f.cycle {
			k := uint64(f.cycle - since)
			if f.sleepKind[node] == sleepBlocked {
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
	if f.sleepKind[node] == sleepBlocked {
		f.Routers[node].ReplayBlockedCycles(k)
		sc.wokenBlocked++
	} else {
		f.Routers[node].AddIdleCycles(k)
	}
	f.sleepKind[node] = sleepNone
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
		f.moves[node] = r.Arbitrate(f.moves[node][:0])
		if r.Commit(f.moves[node]) {
			sc.delivering = append(sc.delivering, node)
		}
	}
}

// deliver is the ordered half of applying move m of node: the PE copy goes
// through reassembly to the tracker, and a completed packet may allocate
// packet ids and queue a retransmission. Single-threaded, ascending node
// order: this is the simulation's event order.
//
//quarc:hotpath
func (f *Fabric) deliver(node int, m *router.Move) {
	f.delivered++
	if f.Trace != nil {
		f.Trace.Record(trace.Event{Cycle: f.cycle, Kind: trace.Deliver,
			Node: node, Out: -1, VC: -1,
			PktID: m.Flit.PktID, MsgID: m.Flit.MsgID, Seq: m.Flit.Seq})
	}
	f.Adapters[node].Receive(m.Flit, f.cycle)
}

// link is the commutative half of applying move m of node: the pop's credit
// goes back to the lane's feeder, and a forwarded flit is shifted and pushed
// downstream. Effects on the calling worker's own nodes apply at once, the
// rest are posted to their owner.
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
	if m.In < f.injStart[node] {
		// Multicast bitstrings are hop-indexed: forwarding from a network
		// input moves the stream one hop, so the hardware shifts the
		// bitstring (bit 0 always means "the node this flit is arriving
		// at"). The move's copy is the flit in flight — any local delivery
		// has already read it — so it is shifted where it lies.
		m.Flit.Bits >>= 1
	}
	sc.forwarded++
	if f.Trace != nil {
		f.Trace.Record(trace.Event{Cycle: f.cycle, Kind: trace.Forward,
			Node: node, Out: m.Out, VC: m.OutVC,
			PktID: m.Flit.PktID, MsgID: m.Flit.MsgID, Seq: m.Flit.Seq})
	}
	f.send(sc, linkRec{node: int32(w.Dst.Node), port: int16(w.Dst.Port), vc: int16(m.OutVC), f: &m.Flit})
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
	if r.f == nil {
		// A returned credit is exactly the event a blocked sleeper waits for.
		f.Routers[node].ReturnCredit(int(r.port), int(r.vc))
		if f.sleepKind[node] == sleepBlocked {
			f.wake(node)
		}
		return
	}
	if !f.Routers[node].Push(int(r.port), int(r.vc), r.f) {
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
		f.Adapters[node].Feed(f.cycle)
		if !f.dense {
			f.sleepScan(node, sc)
		}
	}
}

// sleepScan decides whether a just-stepped node can leave the step set:
// drained nodes sleep idle; nodes that stay grantless for blockedSleepAfter
// cycles and then prove frozen (no head flit can move until a credit
// returns, and the adapter cannot inject) sleep blocked. Candidates are
// recorded in scratch; fold commits them. It reads only the node's own
// switch and adapter, and a sleeping switch needs nothing refreshed: nobody
// reads it.
//
//quarc:hotpath
func (f *Fabric) sleepScan(node int, sc *stepScratch) {
	if !f.canSleep[node] {
		return
	}
	r := f.Routers[node]
	if r.Quiescent() {
		f.noGrant[node] = 0
		if f.Adapters[node].Backlog() == 0 {
			sc.sleptIdle = append(sc.sleptIdle, node)
		}
		return
	}
	if len(f.moves[node]) != 0 {
		f.noGrant[node] = 0
		return
	}
	if f.noGrant[node] < blockedSleepAfter {
		f.noGrant[node]++
		return
	}
	if f.Adapters[node].Backlog() > 0 {
		fb := f.feedBlk[node]
		if fb == nil || !fb.FeedBlocked() {
			f.noGrant[node] = 0
			return
		}
	}
	if !r.FrozenBlocked() {
		// Some head is sendable (it keeps losing arbitration): re-arm the
		// counter so the relatively expensive probe stays off the hot path.
		f.noGrant[node] = 0
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
		f.idleSince[node] = f.cycle + 1
		f.sleepKind[node] = sleepIdle
		f.sleeping++
	}
	sc.sleptIdle = sc.sleptIdle[:0]
	for _, node := range sc.sleptBlocked {
		f.activeMask[node>>6] &^= 1 << uint(node&63)
		f.idleSince[node] = f.cycle + 1
		f.sleepKind[node] = sleepBlocked
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
		moves := f.moves[node]
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
// stop, when non-nil, is evaluated before each cycle (between cycles, never
// mid-cycle); a true return halts the batch. Cycles run on the worker pool
// when one is installed and the active set is large enough, one dispatch
// covering the run for as long as it stays that large (waking the helpers
// costs more than a cycle). A traced fabric always steps serially: the trace
// records the serial event order. External events (traffic enqueues) must not
// occur between batched cycles; drive the fabric cycle by cycle with Step
// while sources are live, and batch only event-free spans (drains).
//
//quarc:hotpath
func (f *Fabric) StepBatch(n int64, stop func() bool) int64 {
	done := int64(0)
	latched := false
	for done < n {
		if !latched {
			if stop != nil && stop() {
				return done
			}
			f.latch()
		}
		latched = false
		if f.pool != nil && f.Trace == nil && len(f.stepList) >= f.stepGrain {
			ran, latchedNext, stopped := f.pool.run(n-done, stop)
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
// Step). The experiment layer pairs it with the kernel's ticker skip to jump
// from one traffic arrival to the next without simulating the empty cycles
// between.
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
