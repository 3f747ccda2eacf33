// Package sim is a minimal discrete-event simulation kernel.
//
// It plays the role OMNeT++ plays in the paper: an event calendar with
// deterministic ordering for the flit-level network model. Time is an
// integer cycle count. Events scheduled for the same cycle are ordered by an
// explicit priority and then by insertion sequence, so a simulation is a pure
// function of its inputs and seeds.
//
// The calendar holds the sparse events (traffic arrivals, statistics
// samples); the fabric's every-cycle clock is not an event. The experiment
// layer owns that clock and, before each cycle t, fires the calendar up to
// (t, PriFabric) with RunBefore, so the per-cycle work is one comparison
// against the calendar's head, not a heap push and pop.
package sim

// Time is simulation time in clock cycles.
type Time = int64

// Priority orders events that fire at the same cycle. Lower runs first.
type Priority int

// Standard priorities used by the network model. Traffic arrives first so a
// message generated at cycle t can be considered by the fabric cycle t;
// statistics run last so they observe the state that cycle left.
const (
	PriTraffic Priority = 10
	PriFabric  Priority = 20
	PriStats   Priority = 30
)

// Event is a scheduled callback.
type Event struct {
	at  Time
	pri Priority
	seq uint64
	fn  func(now Time)
	// tick, when set, makes this a repeating event: after it fires, the
	// same Event object is re-pushed every cycles later while tick returns
	// true. Reusing the object keeps tickers (each traffic source, the
	// samplers) allocation-free.
	tick   func(now Time) bool
	every  Time
	skipTo Time
}

// SkipTo requests that this repeating event's next firing be at the given
// absolute time instead of one period after the current one (it never moves
// the firing earlier than that). Call it from inside the event's own
// callback; the request applies to the upcoming reschedule only. A traffic
// source uses it to jump to its next arrival.
func (e *Event) SkipTo(at Time) { e.skipTo = at }

// before is the calendar order: time, then priority, then insertion
// sequence. Sequence numbers are unique, so it is a total order and the
// firing order does not depend on the heap's internal layout.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.pri != o.pri {
		return e.pri < o.pri
	}
	return e.seq < o.seq
}

// Kernel is the event calendar. The zero value is ready to use.
type Kernel struct {
	heap    []*Event // binary min-heap in before order
	now     Time
	seq     uint64
	stopped bool
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// NextEventTime returns the time of the earliest scheduled event, and false
// when the calendar is empty.
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// Schedule registers fn to run at the given absolute time. Scheduling in the
// past (before Now) panics: the fabric depends on causality.
func (k *Kernel) Schedule(at Time, pri Priority, fn func(now Time)) *Event {
	if at < k.now {
		panic("sim: scheduling event in the past")
	}
	e := &Event{at: at, pri: pri, seq: k.seq, fn: fn}
	k.seq++
	k.push(e)
	return e
}

// push adds e to the calendar, sifting it up from the last leaf.
func (k *Kernel) push(e *Event) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.heap = h
}

// pop removes and returns the earliest event, sifting the last leaf down
// from the root into the hole.
func (k *Kernel) pop() *Event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	k.heap = h
	return top
}

// After schedules fn delay cycles from now.
func (k *Kernel) After(delay Time, pri Priority, fn func(now Time)) *Event {
	return k.Schedule(k.now+delay, pri, fn)
}

// Stop halts Run or RunBefore before the next event fires.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop was called since the last Run began. A stopped
// kernel's RunBefore fires nothing until Run resets it.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events in order until the calendar is empty, an event at a
// time strictly greater than until would fire, or Stop is called. It returns
// the final simulation time.
func (k *Kernel) Run(until Time) Time {
	k.stopped = false
	for len(k.heap) > 0 && !k.stopped && k.heap[0].at <= until {
		k.fire()
	}
	if k.now < until && !k.stopped {
		k.now = until
	}
	return k.now
}

// RunBefore executes, in calendar order, every event that sorts before
// (t, pri): all events earlier than cycle t, and those at t with a lower
// priority. It stops early when Stop is called. A caller that owns a clock
// of its own (the experiment layer's fabric loop) uses it to interleave the
// calendar with its cycles without scheduling an event per cycle: calling
// RunBefore(t, PriFabric) before stepping cycle t fires the traffic of t and
// everything earlier, and leaves the statistics of t until the cycle is done.
func (k *Kernel) RunBefore(t Time, pri Priority) {
	for len(k.heap) > 0 && !k.stopped {
		if e := k.heap[0]; e.at > t || e.at == t && e.pri >= pri {
			return
		}
		k.fire()
	}
}

// fire pops the earliest event and runs it.
func (k *Kernel) fire() {
	e := k.pop()
	k.now = e.at
	if e.tick == nil {
		e.fn(e.at)
		return
	}
	// Repeating event: fire, then re-push the same object. The sequence
	// number is taken after the callback runs, matching a callback that
	// reschedules itself as its last action.
	if e.tick(e.at) {
		next := e.at + e.every
		if e.skipTo > next {
			next = e.skipTo
		}
		e.skipTo = 0
		e.at = next
		e.seq = k.seq
		k.seq++
		k.push(e)
	}
}

// Ticker repeatedly schedules fn every period cycles at the given priority,
// starting at start. fn returning false stops the ticker. One Event object
// is reused for every firing, so a per-cycle ticker costs no allocation
// after setup. fn may call SkipTo on the returned Event.
func (k *Kernel) Ticker(start Time, period Time, pri Priority, fn func(now Time) bool) *Event {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	if start < k.now {
		panic("sim: scheduling event in the past")
	}
	e := &Event{at: start, pri: pri, seq: k.seq, tick: fn, every: period}
	k.seq++
	k.push(e)
	return e
}
