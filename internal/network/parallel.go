// Intra-cycle parallel stepping: a persistent worker pool gives each worker a
// fixed shard of the fabric — a contiguous node range made of whole 64-node
// activeMask words, so every router, lane, credit counter, wake bit and
// adapter has exactly one owning worker — and runs a cycle in six barriers:
//
//	pass 1 (own nodes: reconcile, arbitrate, commit)        ‖ barrier
//	worker 0: deliver, the ordered half of apply             ‖ barrier
//	link, the commutative half: effects on own nodes at
//	  once, the rest posted to their owner's mailbox         ‖ barrier
//	drain own inbox                                          ‖ barrier
//	pass 2 (feed, sleep scan)                                ‖ barrier
//	worker 0: fold scratches, advance the clock, run the
//	  batch hook, latch                                      ‖ barrier
//
// One dispatch runs a whole StepBatch for as long as the active set stays at
// the pool grain. The batch hook, which may enqueue traffic on any node, runs
// in worker 0's closing section while every helper waits at the barrier, and
// the barrier publishes what it wrote; so a stretch with live traffic
// sources costs one helper wake-up, not one per cycle.
//
// A mailbox record points at the slot its flit's move vacated in the sending
// switch (the vacated-slot rule of internal/router), and the sender's Feed
// may refill that slot in pass 2. The barrier between the drain and pass 2
// keeps every record's flit intact until its reader has pushed it.
//
// Determinism contract. The passes touch only the visited node's own switch
// and adapter. Everything order-sensitive — PE delivery, reassembly, tracker,
// packet-id and packet-table updates — is the ordered half, which worker 0
// runs alone in ascending node order, exactly the serial order; the passes
// and the link phase only read the packet table. The link phase is
// order-free: a credit return is an integer add, a lane has one feeder that
// sends at most one flit a cycle, a wake is an idempotent bit set; applied by
// the producer or drained from a mailbox, in any order, the state after the
// phase is the same. Results are therefore byte-identical at any worker
// count, including 1: the serial path is these same phase functions over one
// shard that owns every node.
//
// The discipline: outside worker-0 (`if w == 0`) sections and the functions
// documented as single-threaded, shared state is written only through the
// worker's own scratch. Its guard is CI's -race run of the step-pool
// invariance suites (TestStepWorkerInvariance, TestCrossShardLinksBitIdentical
// and the network pool tests): a shared write outside a worker-0 section, or
// a write to another worker's scratch, is a DATA RACE there.
//
//quarc:poolfile intra-cycle stepping pool; determinism proven by TestStepWorkerInvariance and TestCrossShardLinksBitIdentical
package network

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// spinBarrier synchronises the pool between phases. Workers spin on a
// generation counter (yielding after a burst), which is dramatically cheaper
// than mutex/condvar parking at the microsecond phase lengths of a fabric
// cycle; the atomics carry the happens-before edges the memory model (and
// the race detector) need.
type spinBarrier struct {
	n int32
	// spinLimit is how long a waiter burns cycles before yielding to the
	// scheduler. When the pool has a core per worker, spinning through a
	// phase boundary is the fast path; when workers outnumber GOMAXPROCS
	// (CI containers, -race runs on small machines), the stragglers can
	// only arrive once the waiter yields, so it must do so immediately.
	spinLimit int
	count     atomic.Int32
	gen       atomic.Uint64
}

//quarc:hotpath
func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins >= b.spinLimit {
			runtime.Gosched()
		}
	}
}

// stepPool runs fabric cycles with `workers` goroutines (the dispatching
// caller counts as worker 0; workers-1 helpers park on a channel between
// dispatches). One dispatch covers up to maxCycles cycles (1 for Step), the
// coordinator running the batch hook and latching between cycles.
type stepPool struct {
	f       *Fabric
	workers int
	bar     spinBarrier
	work    chan struct{} // one token per helper per dispatch; closed to exit
	cuts    []int         // worker w steps f.stepList[cuts[w]:cuts[w+1]]
	scratch []stepScratch

	// Dispatch state: written by worker 0 in single-threaded sections,
	// published to helpers by the barrier. halt is set by every closing
	// section and never reset between dispatches, so a helper slow to read
	// the last cycle's verdict still reads the truth.
	maxCycles   int64
	ran         int64
	hook        func() bool
	halt        bool
	latchedNext bool
	stopped     bool
}

// dispatches counts pool dispatches across every fabric in the process.
var dispatches atomic.Uint64

// PoolDispatches returns how many times any fabric's worker pool has been
// dispatched — each one a wake-up of its parked helpers. Test hook: the
// dispatch tests and benchmarks read it before and after a run.
func PoolDispatches() uint64 { return dispatches.Load() }

// newStepPool builds the pool single-threaded, before any helper exists.
// Shards are runs of whole activeMask words, the last taking the partial word
// if there is one.
func newStepPool(f *Fabric, workers int) *stepPool {
	p := &stepPool{
		f:       f,
		workers: workers,
		work:    make(chan struct{}),
		cuts:    make([]int, workers+1),
		scratch: make([]stepScratch, workers),
	}
	p.bar.n = int32(workers)
	if runtime.GOMAXPROCS(0) >= workers {
		p.bar.spinLimit = 512
	}
	words := len(f.activeMask)
	shardOf := make([]uint8, words)
	for w := range p.scratch {
		lo, hi := w*words/workers, (w+1)*words/workers
		for i := lo; i < hi; i++ {
			shardOf[i] = uint8(w)
		}
		p.scratch[w] = newStepScratch(lo<<6, min(hi<<6, f.N))
		p.scratch[w].shardOf = shardOf
		p.scratch[w].outbox = make([][]linkRec, workers) // each grows to its pair's traffic
	}
	for w := 1; w < workers; w++ {
		go func(id int) {
			for range p.work {
				p.cycles(id)
			}
		}(w)
	}
	return p
}

// close shuts the helper goroutines down. Must not be called while a
// dispatch is in flight.
func (p *stepPool) close() {
	close(p.work)
}

// cutShards locates each worker's fixed node range in the latched step list.
// Single-threaded: the dispatcher or worker 0, between cycles.
func (p *stepPool) cutShards() {
	for w := range p.scratch {
		p.cuts[w] = sort.SearchInts(p.f.stepList, p.scratch[w].lo)
	}
	p.cuts[p.workers] = len(p.f.stepList)
}

// run executes up to maxCycles cycles on the pool against the already
// latched step list. It returns the cycles run, whether the next cycle's
// step set was latched but left unrun (it fell below the pool grain), and
// whether the batch hook halted the batch. It is single-threaded up to the
// work-channel sends below: helpers only wake there, after the dispatch
// state is fully written.
func (p *stepPool) run(maxCycles int64, hook func() bool) (ran int64, latchedNext, stopped bool) {
	dispatches.Add(1)
	p.maxCycles, p.hook = maxCycles, hook
	p.ran, p.latchedNext, p.stopped = 0, false, false
	p.cutShards()
	for w := 1; w < p.workers; w++ {
		p.work <- struct{}{}
	}
	p.cycles(0)
	p.hook = nil
	return p.ran, p.latchedNext, p.stopped
}

// post parks a link effect in the mailbox of the shard that owns its node.
//
//quarc:hotpath
func (sc *stepScratch) post(r linkRec) {
	d := sc.shardOf[r.node>>6]
	sc.outbox[d] = append(sc.outbox[d], r)
}

// deliverRecorded runs the ordered half of apply: the shards' delivering
// lists, concatenated in worker order, are ascending. Worker 0 runs it alone,
// single-threaded between two barriers.
//
//quarc:hotpath
func (p *stepPool) deliverRecorded() {
	f := p.f
	for w := range p.scratch {
		for _, node := range p.scratch[w].delivering {
			moves := f.movesOf(node)
			for i := range moves {
				if moves[i].Deliver {
					f.deliver(node, &moves[i])
				}
			}
		}
	}
}

// endCycle closes the cycle, runs the batch hook before the next one and
// decides whether the dispatch continues. Worker 0 runs it alone,
// single-threaded between two barriers, so the hook may touch any node.
//
//quarc:hotpath
func (p *stepPool) endCycle() {
	f := p.f
	for w := range p.scratch {
		f.fold(&p.scratch[w])
	}
	f.cycle++
	p.ran++
	p.halt = true
	if p.ran == p.maxCycles {
		return
	}
	if p.hook != nil && p.hook() {
		p.stopped = true
		return
	}
	f.latch()
	if len(f.stepList) < f.stepGrain {
		p.latchedNext = true
		return
	}
	p.cutShards()
	p.halt = false
}

// cycles is the per-worker cycle loop. All workers observe the same halt
// decision through the final barrier, so they enter and leave together.
//
//quarc:hotpath
func (p *stepPool) cycles(w int) {
	f := p.f
	sc := &p.scratch[w]
	for {
		shard := f.stepList[p.cuts[w]:p.cuts[w+1]]
		f.pass1(shard, sc)
		p.bar.wait()
		if w == 0 {
			p.deliverRecorded()
		}
		p.bar.wait()
		for d := range sc.outbox {
			sc.outbox[d] = sc.outbox[d][:0]
		}
		for _, node := range shard {
			moves := f.movesOf(node)
			for i := range moves {
				f.link(node, &moves[i], sc)
			}
		}
		p.bar.wait()
		for src := range p.scratch {
			for _, r := range p.scratch[src].outbox[w] {
				f.applyLink(r)
			}
		}
		p.bar.wait() // every record read before any Feed may refill its slot
		f.pass2(shard, sc)
		p.bar.wait()
		if w == 0 {
			p.endCycle()
		}
		p.bar.wait()
		if p.halt {
			return
		}
	}
}
