// Package network assembles switches into a simulated NoC: it owns the
// wiring between output ports and downstream input ports, runs the global
// two-phase (compute/commit) cycle, feeds network adapters, delivers ejected
// flits and tracks message lifecycles for the statistics layer.
//
// The fabric is topology-agnostic: internal/quarc, internal/spidergon and
// internal/mesh provide router configurations, wiring tables and adapters.
//
// Stepping is activity-driven: the fabric keeps a set of active nodes (any
// buffered flit or pending source-queue backlog) and each cycle snapshots,
// arbitrates, commits and feeds only those. Routers are woken by flits
// pushed into them and by adapter enqueues, and go to sleep when fully
// drained — or, under saturation, when provably blocked (buffered flits but
// no possible move until a downstream credit returns; see sleepScan); slept
// cycles are credited to their statistics in bulk, so the observable
// simulation — every flit movement, every counter — is bit-identical to
// stepping all N routers every cycle (SetDense selects that reference
// behaviour, and the experiment layer's equivalence suite proves the
// identity for every registered model).
//
// Within one cycle the phases are data-parallel per router: SetStepWorkers
// shards the active set across a persistent worker pool with all shared
// state mutated in single-threaded sections in ascending node order, so
// results are byte-identical at any worker count (see parallel.go).
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

// Adapter is a network adapter (the paper's transceiver for Quarc, the
// one-port NI for Spidergon): it feeds injection lanes and consumes
// delivered flits.
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
// that accept a wake callback: the fabric installs one in SetAdapter so
// source-queue enqueues can reactivate a sleeping node. Adapters that do not
// implement it are never put to sleep.
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

// satBatchStreak is how many consecutive >90%-active cycles engage
// multi-cycle batching in StepBatch: one pool dispatch then covers a run of
// cycles instead of one, amortising per-dispatch overhead exactly when the
// active set is stable.
const satBatchStreak = 8

// defaultStepGrain is the minimum active-set size before the worker pool is
// worth its barriers; below it the serial path is faster.
const defaultStepGrain = 48

// stepScratch is per-worker per-cycle scratch: wake accounting and sleep
// candidates, merged by the coordinator in single-threaded sections. The
// trailing pad keeps adjacent workers' scratches off shared cache lines.
type stepScratch struct {
	woken        int   // nodes reconciled out of sleep this cycle
	wokenBlocked int   // subset that slept blocked
	sleptIdle    []int // drained nodes leaving the step set
	sleptBlocked []int // frozen nodes leaving the step set
	_            [64]byte
}

// Fabric is the assembled network.
type Fabric struct {
	N        int
	Routers  []*router.Router
	Adapters []Adapter
	Tracker  *Tracker
	// Trace, when non-nil, records flit-level forward/deliver events.
	Trace *trace.Buffer

	wires    [][]OutputWire        // [node][out]
	views    [][]router.Downstream // [node][out] snapshot credit views
	injStart []int                 // first injection port index per node
	moves    [][]router.Move       // scratch, reused
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

	// Blocked-sleep state (the dependency wake graph).
	liveViews       [][]router.Downstream // [node][out] live credit views for frozen probes
	feeder          [][]int32             // [node][in] upstream node feeding the port, or -1
	sleepKind       []uint8               // per node: sleepNone/sleepIdle/sleepBlocked
	noGrant         []uint8               // consecutive grantless busy cycles
	feedBlk         []feedBlocked         // adapters' FeedBlocked hooks, nil when unsupported
	noBlockedSleep  bool                  // wiring defeats per-port wake attribution
	blockedSleeping int                   // nodes currently in blocked sleep
	blockedSleeps   uint64                // cumulative blocked-sleep entries (diagnostic)

	// Intra-cycle parallelism.
	scr       stepScratch // serial-path scratch
	stepGrain int         // min active nodes before the pool engages
	satStreak uint8       // consecutive >90%-active cycles
	pool      *stepPool   // nil: serial stepping

	delivered uint64 // flits delivered to PEs
	forwarded uint64 // flits crossing links
	stepped   uint64 // router-steps executed (activity diagnostic)
}

// creditView is the registered (one-cycle lagged) credit semantics used by
// arbitration: free space as snapshotted at the start of the cycle.
type creditView struct {
	r    *router.Router
	port int
}

func (c creditView) CreditFree(vc int) int { return c.r.SnapFree(c.port, vc) }

// liveCreditView reads the downstream occupancy as it is right now; the
// frozen-state probe uses it because a blocked router's credit view cannot
// change between the lagged and live values.
type liveCreditView struct {
	r    *router.Router
	port int
}

func (c liveCreditView) CreditFree(vc int) int { return c.r.LaneFree(c.port, vc) }

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
	f.scr.sleptIdle = make([]int, 0, n)
	f.scr.sleptBlocked = make([]int, 0, n)
	// Every node starts awake (matching a dense cycle 0); empty routers go
	// quiescent after their first step.
	for node := 0; node < n; node++ {
		f.activeMask[node>>6] |= 1 << uint(node&63)
		f.idleSince[node] = -1
	}
	f.views = make([][]router.Downstream, n)
	f.liveViews = make([][]router.Downstream, n)
	f.feeder = make([][]int32, n)
	for node, r := range routers {
		fd := make([]int32, r.NumInputs())
		for i := range fd {
			fd[i] = -1
		}
		f.feeder[node] = fd
	}
	for node, ws := range wires {
		f.views[node] = make([]router.Downstream, len(ws))
		f.liveViews[node] = make([]router.Downstream, len(ws))
		for o, w := range ws {
			if w.Sink {
				continue // nil views: the PE absorbs at link rate
			}
			if w.Dst.Node < 0 || w.Dst.Node >= n {
				panic(fmt.Sprintf("network: wire %d.%d to bad node %d", node, o, w.Dst.Node))
			}
			f.views[node][o] = creditView{r: routers[w.Dst.Node], port: w.Dst.Port}
			f.liveViews[node][o] = liveCreditView{r: routers[w.Dst.Node], port: w.Dst.Port}
			// The dependency wake graph inverts the wiring: a pop at input
			// port (dst, port) returns a credit to exactly this node. If two
			// outputs ever fed one input port that attribution would break,
			// so blocked sleep shuts off rather than risk a lost wake.
			if prev := f.feeder[w.Dst.Node][w.Dst.Port]; prev >= 0 && prev != int32(node) {
				f.noBlockedSleep = true
			}
			f.feeder[w.Dst.Node][w.Dst.Port] = int32(node)
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
// not pin one: GOMAXPROCS clamped to n/16, so small fabrics (whose phases
// cannot amortise barrier latency) stay serial and large ones use the
// machine.
func DefaultStepWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if limit := n / 16; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetStepWorkers sizes the fabric's intra-cycle worker pool: w <= 1 steps
// serially, larger values shard each phase of each cycle across w goroutines
// (the caller counts as one). Results are byte-identical at any value. The
// pool is persistent; callers owning a fabric with w > 1 should Close it
// when done. Calling SetStepWorkers again replaces the pool.
func (f *Fabric) SetStepWorkers(w int) {
	if f.pool != nil {
		f.pool.close()
		f.pool = nil
	}
	if w > f.N {
		w = f.N
	}
	if w <= 1 {
		return
	}
	f.pool = newStepPool(f, w)
}

// SetStepGrain overrides the minimum active-set size at which the worker
// pool engages (default 48). Test hook: small fabrics can force the parallel
// path to prove invariance.
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
// when a dense step would first observe the new flit. It also maintains the
// saturation streak that arms multi-cycle batching.
//
//quarc:hotpath
//quarc:coordinator
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
	if len(list)*10 > f.N*9 {
		if f.satStreak < satBatchStreak {
			f.satStreak++
		}
	} else {
		f.satStreak = 0
	}
}

// reconcile credits a newly woken router with its slept cycles, then latches
// its occupancy snapshot for this cycle (registered credits). Phase 0 of the
// cycle; per-node, safe to run in parallel over disjoint nodes.
//
//quarc:hotpath
func (f *Fabric) reconcile(node int, sc *stepScratch) {
	if f.idleSince[node] >= 0 {
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
	f.Routers[node].Snapshot()
}

// applyWoken folds one scratch's wake counts into the fabric totals.
//
//quarc:hotpath
//quarc:coordinator
func (f *Fabric) applyWoken(sc *stepScratch) {
	f.sleeping -= sc.woken
	f.blockedSleeping -= sc.wokenBlocked
	sc.woken, sc.wokenBlocked = 0, 0
}

// applyMoves is the shared-state half of commit: deliver ejected copies,
// move flits across links, fire credit-return wakes. Must run
// single-threaded in ascending node order — it mutates the tracker, the
// trace, the global counters and downstream lanes, and its order defines the
// deterministic event order the parallel path reproduces.
//
//quarc:hotpath
//quarc:coordinator
func (f *Fabric) applyMoves(list []int) {
	for _, node := range list {
		moves := f.moves[node]
		for i := range moves {
			m := &moves[i]
			// The committed pop freed a slot in lane (node, m.In): if the
			// upstream switch feeding that port sleeps blocked, the returned
			// credit is exactly the event it waits for.
			if fd := f.feeder[node][m.In]; fd >= 0 && f.sleepKind[fd] == sleepBlocked {
				f.wake(int(fd))
			}
			if m.Deliver {
				f.delivered++
				if f.Trace != nil {
					f.Trace.Record(trace.Event{Cycle: f.cycle, Kind: trace.Deliver,
						Node: node, Out: -1, VC: -1,
						PktID: m.Flit.PktID, MsgID: m.Flit.MsgID, Seq: m.Flit.Seq})
				}
				f.Adapters[node].Receive(m.Flit, f.cycle)
			}
			if m.Out == router.NoOutput {
				continue
			}
			w := f.wires[node][m.Out]
			if w.Sink {
				continue // shared ejection port: consumed by the PE
			}
			if m.In < f.injStart[node] {
				// Multicast bitstrings are hop-indexed: forwarding from a
				// network input moves the stream one hop, so the hardware
				// shifts the bitstring (bit 0 always means "the node this
				// flit is arriving at"). The move's copy is the flit in
				// flight — the local delivery above has already read it — so
				// it is shifted where it lies.
				m.Flit.Bits >>= 1
			}
			f.forwarded++
			if f.Trace != nil {
				f.Trace.Record(trace.Event{Cycle: f.cycle, Kind: trace.Forward,
					Node: node, Out: m.Out, VC: m.OutVC,
					PktID: m.Flit.PktID, MsgID: m.Flit.MsgID, Seq: m.Flit.Seq})
			}
			if !f.Routers[w.Dst.Node].Push(w.Dst.Port, m.OutVC, &m.Flit) {
				//quarc:allow hotpath: invariant-violation panic path, unreachable in a correct build
				panic(fmt.Sprintf("network: credit violation pushing into %d.%d vc %d",
					w.Dst.Node, w.Dst.Port, m.OutVC))
			}
			f.wake(w.Dst.Node)
		}
	}
}

// sleepScan decides whether a just-stepped node can leave the step set:
// drained nodes sleep idle; nodes that stay grantless for blockedSleepAfter
// cycles and then prove frozen (no head flit can move until a credit
// returns, and the adapter cannot inject) sleep blocked. Candidates are
// recorded in scratch; applySleep commits them. Per-node: reads other
// routers only through live occupancy (stable during this phase), so it is
// safe to run in parallel over disjoint nodes.
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
			// Refreshing the credit snapshot on the way out keeps upstream
			// credit views identical to dense stepping, where the next cycle
			// would re-latch the same state.
			r.RefreshSnapshot()
		}
		return
	}
	if f.noBlockedSleep || len(f.moves[node]) != 0 {
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
	if !r.FrozenBlocked(f.liveViews[node]) {
		// Some head is sendable (it keeps losing arbitration): re-arm the
		// counter so the relatively expensive probe stays off the hot path.
		f.noGrant[node] = 0
		return
	}
	sc.sleptBlocked = append(sc.sleptBlocked, node)
	r.RefreshSnapshot()
}

// applySleep removes one scratch's sleep candidates from the step set.
// Single-threaded; the per-node sets are disjoint across workers and every
// mutation commutes, so merge order does not matter.
//
//quarc:hotpath
//quarc:coordinator
func (f *Fabric) applySleep(sc *stepScratch) {
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

// stepSerial runs one latched cycle on the calling goroutine.
//
//quarc:hotpath
func (f *Fabric) stepSerial(list []int) {
	sc := &f.scr
	// Phase 0: latch occupancy snapshots (registered credits), crediting
	// newly woken routers with their slept cycles first.
	for _, node := range list {
		f.reconcile(node, sc)
	}
	// Phase 1: active routers arbitrate against the snapshots.
	for _, node := range list {
		f.moves[node] = f.Routers[node].Arbitrate(f.views[node], f.moves[node][:0])
	}
	// Phase 2: commit switch state, then apply the shared-state half
	// (deliveries, link transfers, wakes) in node order.
	for _, node := range list {
		f.Routers[node].Commit(f.moves[node])
	}
	f.applyWoken(sc)
	f.applyMoves(list)
	// Phase 3: adapters refill injection lanes.
	for _, node := range list {
		f.Adapters[node].Feed(f.cycle)
	}
	// Drained or frozen nodes leave the step set until a push, an enqueue
	// or a returned credit wakes them.
	if !f.dense {
		for _, node := range list {
			f.sleepScan(node, sc)
		}
		f.applySleep(sc)
	}
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
// when one is installed and the active set is large enough, and — once the
// fabric has been saturated for satBatchStreak cycles — whole runs of cycles
// execute in a single pool dispatch. External events (traffic enqueues) must
// not occur between batched cycles; drive the fabric cycle by cycle with
// Step while sources are live, and batch only event-free spans (drains,
// fixed-workload runs).
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
		if f.pool != nil && len(f.stepList) >= f.stepGrain {
			max := int64(1)
			if f.satStreak >= satBatchStreak {
				max = n - done
			}
			ran, latchedNext, stopped := f.pool.run(max, stop)
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

// Run advances the fabric by the given number of cycles. Saturated spans
// batch multiple cycles per pool dispatch; callers needing per-cycle events
// must call Step in their own loop.
func (f *Fabric) Run(cycles int64) {
	f.StepBatch(cycles, nil)
}
