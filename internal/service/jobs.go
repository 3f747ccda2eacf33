package service

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"quarc/internal/experiments"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a job in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one NDJSON progress line of GET /v1/jobs/{id}/events. Type is
// "state" for lifecycle transitions and "point" for sweep-point completions
// (rep is omitted for replicate 0). Topo carries the canonical registry
// name of the point's model. The same encoding is appended line-by-line to
// the job's on-disk journal, so a replay after a daemon restart is
// byte-compatible with the live stream.
type Event struct {
	Type        string  `json:"type"`
	State       State   `json:"state,omitempty"`
	Done        int     `json:"done,omitempty"`
	Total       int     `json:"total,omitempty"`
	Topo        string  `json:"topo,omitempty"`
	Rate        float64 `json:"rate,omitempty"`
	Rep         int     `json:"rep,omitempty"`
	UnicastMean float64 `json:"unicast_mean,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	// Degraded marks a terminal state whose result is an analytic estimate
	// served under deadline pressure or load shedding, not a simulation.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Job is one submitted request and its lifecycle. All mutable fields are
// guarded by mu. What survives the terminal transition is what a later
// GET /v1/jobs/{id} or /events read needs: the identity, the exact request
// body, the outcome, the timestamps and the event list. The execution state
// (x) exists only between admission and the terminal transition, and the
// notify channel only while someone waits.
type Job struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"` // a name from the kinds table
	Key     string          `json:"key"`  // canonical cache key
	Request json.RawMessage `json:"-"`

	// onTerminal and sink are the owning Store's hooks, both called with mu
	// held: onTerminal observes the single transition into a terminal state
	// (the server's job-outcome counters) before any waiter wakes, so whoever
	// sees the terminal state also sees it counted; sink receives every event
	// appended to the in-memory list (the server's journal hook), so events
	// reach the journal in exactly the order subscribers observe them. Either
	// may be nil.
	onTerminal func(*Job)
	sink       func(*Job, Event)

	mu sync.Mutex
	// x is the execution state: set when the job is admitted to the
	// scheduler, cleared by the terminal transition. A job answered from the
	// cache or settled as a coalesced follower never has one.
	x *exec
	// changed is closed and cleared on every mutation; the first waiter after
	// a mutation creates it, so a job nobody waits on never allocates one.
	changed  chan struct{}
	state    State
	cached   bool
	degraded bool
	rejected bool // the scheduler turned the job away (see reject)
	// journaled marks the job's journal header as written (maintained by
	// the server's sink, guarded by mu like the rest).
	journaled bool
	errMsg    string
	result    []byte
	events    []Event
	done      int
	total     int
	created   time.Time
	started   time.Time
	finished  time.Time
}

// exec is what a job needs only while it can still run: its parsed work and
// what the executor and the watchdog keep about it. work and deadlineAt are
// fixed when it is made; the rest is guarded by the job's mu.
type exec struct {
	work work
	// deadlineAt is the absolute deadline: the request's deadline_ms budget
	// measured from submission (zero = none) — queueing time counts, the
	// client asked for an answer within the budget, not a simulation started
	// within it. Recovered jobs never carry one: their budget expired with the
	// daemon that accepted them, and failing them for it after a restart would
	// punish the client for our crash.
	deadlineAt time.Time
	// cancel is the execution context's cancel function, handed over by the
	// executor at dequeue, before the job can be running.
	cancel context.CancelFunc
	// progress is the watchdog's heartbeat: the last time the job entered
	// running or completed a sweep point.
	progress time.Time
	// killMsg records the watchdog's diagnosis when it cancelled the job, so
	// the executor reports a diagnosed failure instead of a silent
	// cancellation.
	killMsg string
}

// lifecycleEvents is the room a new job's event list starts with: queued and
// the terminal state, all a job answered without simulating ever appends.
const lifecycleEvents = 2

func newJob(id, kind, key string, req json.RawMessage, onTerminal func(*Job), sink func(*Job, Event)) *Job {
	j := &Job{
		ID: id, Kind: kind, Key: key, Request: req,
		onTerminal: onTerminal, sink: sink,
		state: StateQueued, created: time.Now(),
		events: make([]Event, 0, lifecycleEvents),
	}
	j.appendEventLocked(Event{Type: "state", State: StateQueued})
	return j
}

// arm gives a queued job its execution state, just before it is handed to
// the scheduler. It reports false if the job is already terminal (cancelled
// before it could queue) and so has nothing to run.
func (j *Job) arm(w work, deadline time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.x = &exec{work: w}
	if deadline > 0 {
		j.x.deadlineAt = j.created.Add(deadline)
	}
	return true
}

// dequeue is the executor's claim on a job it took off the queue: it hands
// the job its execution context's cancel function and returns the execution
// state, which stays the executor's to read after a terminal transition
// clears the job's own pointer. nil means the job ended while it queued.
func (j *Job) dequeue(cancel context.CancelFunc) *exec {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.x == nil {
		return nil
	}
	j.x.cancel = cancel
	return j.x
}

// restoreJob rebuilds a job from its journal: the header plus the replayed
// event lines, folded up to the first unparseable one into the last journaled
// state and progress counters. The caller registers it with
// Store.addRecovered, which attaches the store's hooks.
func restoreJob(hdr journalHeader, lines [][]byte) *Job {
	j := &Job{
		ID: hdr.ID, Kind: hdr.Kind, Key: hdr.Key, Request: hdr.Request,
		state: StateQueued, journaled: true,
		events: make([]Event, 0, len(lines)),
	}
	if j.created, _ = time.Parse(time.RFC3339Nano, hdr.Created); j.created.IsZero() {
		j.created = time.Now()
	}
	for _, line := range lines {
		var e Event
		if json.Unmarshal(line, &e) != nil {
			break
		}
		j.events = append(j.events, e)
		switch e.Type {
		case "state":
			j.state, j.cached, j.degraded, j.errMsg = e.State, e.Cached, e.Degraded, e.Error
		case "point", "truncated":
			j.done, j.total = e.Done, e.Total
		}
	}
	return j
}

// appendEventLocked records an event in the in-memory list and forwards it
// to the sink (journal); callers hold mu (or own the job exclusively).
func (j *Job) appendEventLocked(e Event) {
	j.events = append(j.events, e)
	if j.sink != nil {
		j.sink(j, e)
	}
}

// notifyLocked wakes every waiter; callers hold mu.
func (j *Job) notifyLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// waitChanLocked returns the channel the next notify closes, creating it for
// the first waiter; callers hold mu.
func (j *Job) waitChanLocked() <-chan struct{} {
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.changed
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setState transitions the job, appending the matching event, and reports
// whether the transition took effect. Transitions out of a terminal state
// are ignored (e.g. an executor observing a job that was cancelled while
// queued).
func (j *Job) setState(s State, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.setStateLocked(s, errMsg)
}

// setStateLocked is setState for callers holding mu. A terminal transition
// drops the execution state and is counted (onTerminal) before the waiters
// are woken.
func (j *Job) setStateLocked(s State, errMsg string) bool {
	if j.state.terminal() {
		return false
	}
	j.state = s
	switch s {
	case StateRunning: // only an executor that dequeued the job, so x is set
		j.started = time.Now()
		j.x.progress = j.started
	case StateDone, StateFailed, StateCancelled:
		j.finished = time.Now()
		j.x = nil
	}
	j.errMsg = errMsg
	j.appendEventLocked(Event{Type: "state", State: s, Cached: j.cached, Degraded: j.degraded, Error: errMsg})
	if s.terminal() && j.onTerminal != nil {
		j.onTerminal(j)
	}
	j.notifyLocked()
	return true
}

// setTotal records the number of design points the job will simulate.
func (j *Job) setTotal(total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = total
	j.notifyLocked()
}

// maxJobEvents caps the retained per-point events of one job so a
// limit-sized sweep (tens of thousands of points) cannot pin unbounded
// memory in the store. Beyond the cap a single "truncated" marker is
// emitted; progress stays observable through the job snapshot's done/total.
// The journal truncates identically, keeping stream and replay in lockstep.
const maxJobEvents = 4096

// pointDone appends a sweep-point progress event; cached marks points an
// explore evaluator answered from the result cache instead of simulating
// (execution provenance lives only in the event stream and metrics, never in
// the canonical payload). Called concurrently from the sweep engine's worker
// goroutines. A terminal job's events are final — the journal closed its file
// on the terminal line and /events streams stop there — so a point reported
// after the ending is dropped; executors end a job only once its workers have
// returned, so no real progress is lost.
func (j *Job) pointDone(pd experiments.PointDone, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.done++
	j.x.progress = time.Now()
	if pd.Total > j.total {
		j.total = pd.Total
	}
	switch {
	case len(j.events) < maxJobEvents:
		j.appendEventLocked(Event{
			Type: "point", Done: j.done, Total: j.total,
			Topo: pd.Model, Rate: pd.Rate, Rep: pd.Replicate,
			UnicastMean: pd.Result.UnicastMean, Cached: cached,
		})
	case len(j.events) == maxJobEvents:
		j.appendEventLocked(Event{Type: "truncated", Done: j.done, Total: j.total})
	}
	j.notifyLocked()
}

// finish marks the job done with its result payload, reporting whether the
// transition took effect (false if the job was already terminal, e.g.
// cancelled). cached marks an answer that cost no simulation; degraded marks
// an analytic stand-in, which is never routed to the result cache — a later
// identical request deserves the exact answer.
func (j *Job) finish(result []byte, cached, degraded bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.result, j.cached, j.degraded = result, cached, degraded
	return j.setStateLocked(StateDone, "")
}

// reject fails a job the scheduler turned away, reporting whether the
// transition took effect.
func (j *Job) reject(errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.rejected = true
	return j.setStateLocked(StateFailed, errMsg)
}

// resultPayload returns the result bytes of a finished job and whether they
// are a degraded analytic estimate. ok is false while the job is live or if
// it ended any other way.
func (j *Job) resultPayload() (payload []byte, degraded, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false, false
	}
	return j.result, j.degraded, true
}

// progressAt reports the watchdog heartbeat: the last progress time, the
// point counters, and whether the job is currently running.
func (j *Job) progressAt() (last time.Time, done, total int, running bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.x != nil {
		last = j.x.progress
	}
	return last, j.done, j.total, j.state == StateRunning
}

// kill cancels a running job on the watchdog's behalf, recording msg as the
// diagnosis the executor will fail it with. Queued and terminal jobs are
// left alone (a queued job has made exactly the progress it should have).
func (j *Job) kill(msg string) bool {
	j.mu.Lock()
	if j.state != StateRunning || j.x.killMsg != "" {
		j.mu.Unlock()
		return false
	}
	j.x.killMsg = msg
	cancel := j.x.cancel
	j.mu.Unlock()
	cancel()
	return true
}

// killReason returns the watchdog's diagnosis of x's job, if it killed it.
func (j *Job) killReason(x *exec) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return x.killMsg
}

// Cancel requests cancellation: queued jobs transition immediately, running
// jobs get their context cancelled and transition when the simulation
// notices. Terminal jobs are unaffected. It reports whether the job was
// still live.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	var cancel context.CancelFunc
	switch {
	case j.state.terminal():
		j.mu.Unlock()
		return false
	case j.state == StateQueued:
		j.setStateLocked(StateCancelled, "")
	default: // running: the executor set the hook at dequeue
		cancel = j.x.cancel
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// EventsSince returns the events at index >= n and whether the job is
// terminal.
func (j *Job) EventsSince(n int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > len(j.events) {
		n = len(j.events)
	}
	evs := append([]Event(nil), j.events[n:]...)
	return evs, j.state.terminal()
}

// WaitChange blocks until the job changes after the caller observed
// sequence n, the job is terminal, or ctx is done.
func (j *Job) WaitChange(ctx context.Context, n int) {
	for {
		j.mu.Lock()
		if len(j.events) > n || j.state.terminal() {
			j.mu.Unlock()
			return
		}
		ch := j.waitChanLocked()
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// WaitTerminal blocks until the job reaches a terminal state or ctx is done.
func (j *Job) WaitTerminal(ctx context.Context) {
	for {
		j.mu.Lock()
		if j.state.terminal() {
			j.mu.Unlock()
			return
		}
		ch := j.waitChanLocked()
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// JobJSON is the wire form of a job. Result is the canonical payload bytes,
// so two jobs served from the same cache line embed byte-identical results;
// Request echoes the submitted body for auditability.
type JobJSON struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`
	// Degraded marks a job answered with an instant analytic estimate (see
	// RunResult.Degraded) instead of a simulation; pre-deadline-era payloads
	// are unchanged because the field is omitted when false.
	Degraded bool            `json:"degraded,omitempty"`
	Done     int             `json:"done"`
	Total    int             `json:"total"`
	Error    string          `json:"error,omitempty"`
	Created  string          `json:"created,omitempty"`
	Started  string          `json:"started,omitempty"`
	Finished string          `json:"finished,omitempty"`
	Request  json.RawMessage `json:"request,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// Snapshot renders the job's current wire form. withResult=false omits the
// payload (for listings).
func (j *Job) Snapshot(withResult bool) JobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	t := func(ts time.Time) string {
		if ts.IsZero() {
			return ""
		}
		return ts.UTC().Format(time.RFC3339Nano)
	}
	out := JobJSON{
		ID: j.ID, Kind: j.Kind, State: j.state, Cached: j.cached, Degraded: j.degraded,
		Done: j.done, Total: j.total, Error: j.errMsg,
		Created: t(j.created), Started: t(j.started), Finished: t(j.finished),
	}
	if withResult {
		out.Request = j.Request
		if j.state == StateDone {
			out.Result = json.RawMessage(j.result)
		}
	}
	return out
}

// Store holds jobs by ID, bounded by evicting the oldest terminal jobs. Jobs
// sit in one list in creation order with an id index into it, so a lookup, an
// eviction and an insertion are each O(1) at any capacity. A retained
// terminal job is its snapshot and event list only (see Job): at the default
// 4,096 records, a store of cached answers holds about 3 MiB.
type Store struct {
	mu    sync.Mutex
	cap   int
	seq   int
	jobs  map[string]*list.Element
	order *list.List // of *Job, creation order
	// onEvict, when set, observes each eviction (the server uses it to
	// delete the evicted job's journal so journal files track job records);
	// onTerminal and sink are handed to every job (see Job).
	onEvict    func(*Job)
	onTerminal func(*Job)
	sink       func(*Job, Event)
}

// NewStore builds a store retaining at most capacity jobs. The hooks may each
// be nil: onEvict fires for each evicted job, onTerminal once per job as it
// reaches a terminal state, sink for every event a job appends.
func NewStore(capacity int, onEvict func(*Job), onTerminal func(*Job), sink func(*Job, Event)) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{cap: capacity, jobs: make(map[string]*list.Element), order: list.New(),
		onEvict: onEvict, onTerminal: onTerminal, sink: sink}
}

// Add registers a new job under a fresh ID.
func (s *Store) Add(kind, key string, req json.RawMessage) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := newJob(fmt.Sprintf("j%06d", s.seq), kind, key, req, s.onTerminal, s.sink)
	s.registerLocked(j)
	return j
}

// addRecovered registers a job rebuilt from its journal under its original
// ID, advancing the ID sequence past it so new jobs never collide.
func (s *Store) addRecovered(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	if _, err := fmt.Sscanf(j.ID, "j%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	j.onTerminal, j.sink = s.onTerminal, s.sink
	s.registerLocked(j)
}

// registerLocked inserts the job and evicts the oldest terminal jobs beyond
// capacity; live jobs are never dropped, so the store can transiently exceed
// cap under heavy load. Callers hold mu.
func (s *Store) registerLocked(j *Job) {
	s.jobs[j.ID] = s.order.PushBack(j)
	for el := s.order.Front(); el != nil && len(s.jobs) > s.cap; {
		old, next := el.Value.(*Job), el.Next()
		if old.State().terminal() {
			s.order.Remove(el)
			delete(s.jobs, old.ID)
			if s.onEvict != nil {
				s.onEvict(old)
			}
		}
		el = next
	}
}

// Get returns the job with the given ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return el.Value.(*Job), true
}

// List returns the retained jobs in creation order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Job))
	}
	return out
}
