package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/faultinject"
	dstore "quarc/internal/store"
)

// Config sizes a Server.
type Config struct {
	// Workers is the number of jobs executing concurrently (each job may
	// additionally fan its sweep points across its own goroutines). 0 means 2.
	Workers int
	// QueueCap bounds the submission queue; over it, POSTs get 503. 0 means 256.
	QueueCap int
	// CacheBytes bounds the in-memory LRU result cache in payload bytes.
	// 0 means 64 MiB.
	CacheBytes int64
	// StoreEntries bounds retained job records. 0 means 4096.
	StoreEntries int
	// DataDir, when non-empty, enables durability: results persist to
	// DataDir/results (content-addressed, byte-bounded by StoreBytes) and
	// every job's event stream to DataDir/journal, so a restarted daemon
	// serves previous results byte-identically without re-simulating and
	// re-enqueues jobs that were queued or running when it died. Empty runs
	// fully in memory.
	DataDir string
	// StoreBytes bounds the on-disk result store in payload bytes. 0 means
	// 1 GiB.
	StoreBytes int64
	// Chaos, when non-nil, injects the plan's deterministic faults (I/O
	// errors, torn writes, latency spikes) into every disk-store and journal
	// filesystem operation — quarcd's -chaos flag. nil is a zero-cost
	// pass-through.
	Chaos *faultinject.Plan
	// WatchdogStall, when positive, cancels running jobs that make no point
	// progress for that long, failing them with a diagnosis. It must
	// comfortably exceed the longest legitimate single point: one-replicate
	// runs report no progress between start and finish.
	WatchdogStall time.Duration
	// BreakerThreshold is the consecutive disk-store failure count that
	// opens the circuit breaker (quarcd then serves memory-cache-only until
	// a backoff probe succeeds). 0 means 5.
	BreakerThreshold int
	// Log receives request and lifecycle lines; nil discards them.
	Log *log.Logger
}

// Breaker backoff bounds: the first open waits about breakerBaseBackoff
// before a half-open probe, doubling per consecutive open up to
// breakerMaxBackoff, both jittered ±50%.
const (
	breakerBaseBackoff = 250 * time.Millisecond
	breakerMaxBackoff  = 15 * time.Second
)

// Server is the simulation service: an http.Handler plus the scheduler,
// store, cache, durability layer and metrics behind it.
type Server struct {
	cfg     Config
	log     *log.Logger
	store   *Store
	cache   *Cache
	metrics *Metrics
	sched   *Scheduler
	mux     *http.ServeMux

	// disk and journal are the durability tier (nil without a DataDir): the
	// cache reads through to disk on memory misses and writes through on
	// fills, and every job event is mirrored to its journal. breaker guards
	// the result store: consecutive failures trip it and quarcd degrades to
	// memory-cache-only until a half-open probe succeeds.
	disk    *dstore.Store
	journal *dstore.Journal
	breaker *Breaker

	// inflight coalesces identical uncached submissions: the first live job
	// per canonical key is the primary (the one that simulates); later
	// identical submissions attach as followers and are settled from the
	// primary's outcome instead of simulating twice.
	coMu     sync.Mutex
	inflight map[string]*coalesceEntry

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

type coalesceEntry struct {
	primary   *Job
	followers []*Job
}

// New assembles a server, recovers any journaled jobs from cfg.DataDir, and
// starts its executor pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 256
	}
	if cfg.CacheBytes < 1 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.StoreEntries < 1 {
		cfg.StoreEntries = 4096
	}
	if cfg.StoreBytes < 1 {
		cfg.StoreBytes = 1 << 30
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 5
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg, log: lg,
		cache:    NewCache(cfg.CacheBytes),
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		inflight: make(map[string]*coalesceEntry),
		breaker:  NewBreaker(cfg.BreakerThreshold, breakerBaseBackoff, breakerMaxBackoff),
		baseCtx:  ctx, baseCancel: cancel,
	}
	if cfg.DataDir != "" {
		fs := faultinject.FS(faultinject.OS{})
		if cfg.Chaos != nil {
			fs = cfg.Chaos.Wrap(fs)
			lg.Printf("CHAOS ENABLED: injecting store faults (%s)", cfg.Chaos.Spec())
		}
		var err error
		s.disk, err = dstore.OpenFS(filepath.Join(cfg.DataDir, "results"), cfg.StoreBytes, fs)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal, err = dstore.OpenJournalFS(filepath.Join(cfg.DataDir, "journal"), fs)
		if err != nil {
			cancel()
			return nil, err
		}
	}
	// Evicted job records take their journals with them, so journal files
	// track the set of retrievable jobs.
	s.store = NewStore(cfg.StoreEntries, func(j *Job) {
		if s.journal != nil {
			s.journal.Remove(j.ID)
		}
	})
	s.sched = NewScheduler(cfg.Workers, cfg.QueueCap, s.execute)
	s.recoverJobs()
	if cfg.WatchdogStall > 0 {
		go s.watchdog(cfg.WatchdogStall)
	}
	s.mux.HandleFunc("/v1/runs", s.handleRuns)
	s.mux.HandleFunc("/v1/panels", s.handlePanels)
	s.mux.HandleFunc("/v1/explore", s.handleExplore)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/jobs", s.handleJobList)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s, nil
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// cacheGet is the client-visible two-tier lookup: memory first, then the
// disk store (read-through — a disk hit refills the memory tier). Disk hits
// are what make a restarted daemon answer with zero points re-simulated.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if b, ok := s.cache.Get(key); ok {
		return b, true
	}
	return s.diskGet(key)
}

// cacheProbe is cacheGet for internal re-checks: a memory absence is not
// counted as a miss.
func (s *Server) cacheProbe(key string) ([]byte, bool) {
	if b, ok := s.cache.Probe(key); ok {
		return b, true
	}
	return s.diskGet(key)
}

// diskGet reads through the circuit breaker: while the breaker is open the
// disk is not consulted at all (quarcd serves memory-cache-only), and an I/O
// failure on a resident entry — as opposed to a plain miss — counts toward
// opening it. Store failures never surface to clients as errors, only as
// misses.
func (s *Server) diskGet(key string) ([]byte, bool) {
	if s.disk == nil || !s.breaker.Allow() {
		return nil, false
	}
	b, err := s.disk.GetE(key)
	switch {
	case err == nil:
		s.breaker.Success()
		s.metrics.storeHits.Add(1)
		s.cache.Put(key, b)
		return b, true
	case errors.Is(err, dstore.ErrNotFound):
		// Absence is not a fault — but an index miss performs no I/O either,
		// so it is no evidence of health: leave the failure count alone.
		s.breaker.Neutral()
		return nil, false
	default:
		s.breaker.Failure()
		s.metrics.storeFaults.Add(1)
		s.log.Printf("store: %v (breaker %s)", err, s.breaker.State())
		return nil, false
	}
}

// cachePut writes a finished result through both tiers. A disk write
// failure costs durability, not the response; while the breaker is open the
// disk tier is skipped entirely.
func (s *Server) cachePut(key string, val []byte) {
	s.cache.Put(key, val)
	if s.disk == nil || !s.breaker.Allow() {
		return
	}
	if err := s.disk.Put(key, val); err != nil {
		s.breaker.Failure()
		s.metrics.storeFaults.Add(1)
		s.log.Printf("store: %v (breaker %s)", err, s.breaker.State())
		return
	}
	s.breaker.Success()
}

// Snapshot returns the current operational counters.
func (s *Server) Snapshot() MetricsSnapshot {
	hits, misses := s.cache.Stats()
	m := MetricsSnapshot{
		UptimeSeconds:         time.Since(s.metrics.start).Seconds(),
		JobsAccepted:          s.metrics.jobsAccepted.Load(),
		JobsDone:              s.metrics.jobsDone.Load(),
		JobsFailed:            s.metrics.jobsFailed.Load(),
		JobsCancelled:         s.metrics.jobsCancelled.Load(),
		JobsRejected:          s.metrics.jobsRejected.Load(),
		JobsCoalesced:         s.metrics.jobsCoalesced.Load(),
		JobsRecovered:         s.metrics.jobsRecovered.Load(),
		CachedResponses:       s.metrics.cachedResponse.Load(),
		PointsSimulated:       s.metrics.pointsSim.Load(),
		CyclesSimulated:       s.metrics.cyclesSim.Load(),
		ExplorePointsExpanded: s.metrics.explorePointsExpanded.Load(),
		ExplorePointsDeduped:  s.metrics.explorePointsDeduped.Load(),
		ExplorePointsCacheHit: s.metrics.explorePointsCacheHit.Load(),
		CacheHits:             hits,
		CacheMisses:           misses,
		CacheEntries:          s.cache.Len(),
		CacheBytes:            s.cache.Bytes(),
		StoreHits:             s.metrics.storeHits.Load(),
		QueueDepth:            s.sched.Depth(),
		QueueInteractive:      s.sched.DepthClass(ClassInteractive),
		QueueBatch:            s.sched.DepthClass(ClassBatch),
		JobsRunning:           s.sched.Running(),
		DegradedAnswers:       s.metrics.degradedAnswers.Load(),
		WatchdogCancels:       s.metrics.watchdogCancels.Load(),
		PanicsRecovered:       s.metrics.panicsRecovered.Load(),
		StoreFaults:           s.metrics.storeFaults.Load(),
		BreakerState:          s.breaker.State(),
		BreakerOpens:          s.breaker.Opens(),
	}
	if s.disk != nil {
		_, _, ev := s.disk.Stats()
		m.StoreEntries = s.disk.Len()
		m.StoreBytes = s.disk.Bytes()
		m.StoreEvictions = ev
	}
	return m
}

// Drain gracefully shuts the service down: intake stops and the executors
// finish every queued and running job. When ctx expires first, the remaining
// jobs are cancelled and the drain completes with ctx's error. Either way
// the journals are flushed before returning.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.sched.Close()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // abort in-flight simulations
		<-done
		err = ctx.Err()
	}
	// The executors are gone either way; release the base context so the
	// watchdog (and any other lifetime-scoped goroutine) exits too.
	s.baseCancel()
	if s.journal != nil {
		s.journal.CloseAll()
	}
	return err
}

// Close force-stops the service: every live job is cancelled, the executors
// are waited out, and the journals are flushed.
func (s *Server) Close() {
	s.baseCancel()
	for _, j := range s.store.List() {
		j.Cancel()
	}
	s.sched.Close()
	if s.journal != nil {
		s.journal.CloseAll()
	}
}

// execute runs one job to a terminal state on an executor goroutine.
func (s *Server) execute(j *Job) {
	// Whatever way this job ends, settle any identical submissions that
	// coalesced onto it.
	defer s.settleCoalesced(j)
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.setCancel(cancel)
	// A cancellation that raced the dequeue leaves the job terminal; anything
	// later cancels ctx through setCancel's handoff.
	if j.State() != StateQueued {
		return
	}
	// Re-check the cache at dequeue time: an identical job may have finished
	// while this one sat in the queue (the back-to-back duplicate pattern a
	// burst of identical clients produces).
	if cached, ok := s.cacheProbe(j.Key); ok {
		if j.finish(cached, true) {
			s.metrics.cachedResponse.Add(1)
			s.log.Printf("job %s %s served from cache at dequeue", j.ID, j.Kind)
		}
		return
	}
	deadline, hasDeadline := j.deadlineTime()
	if hasDeadline {
		// The budget ran down while the job sat in the queue: answer now
		// without simulating a single cycle.
		if !time.Now().Before(deadline) {
			s.degradeOrFail(j, "deadline expired while queued")
			return
		}
		var cancelDl context.CancelFunc
		ctx, cancelDl = context.WithDeadline(ctx, deadline)
		defer cancelDl()
	}
	if !j.setState(StateRunning, "") {
		return // a cancellation won the race; ctx is (or will be) cancelled
	}
	s.log.Printf("job %s %s key=%.12s running", j.ID, j.Kind, j.Key)

	onPoint := func(pd experiments.PointDone) {
		j.pointDone(pd, false)
		s.metrics.pointsSim.Add(1)
		s.metrics.cyclesSim.Add(uint64(pd.Result.Cycles))
	}

	var payload any
	var err error
	// Panic isolation: a crash anywhere in the simulation stack fails this
	// job with a diagnosis instead of tearing down the daemon and every
	// other job with it.
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.panicsRecovered.Add(1)
				s.log.Printf("job %s panicked: %v\n%s", j.ID, r, debug.Stack())
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		switch {
		case j.work.run != nil:
			w := j.work.run
			j.setTotal(w.replicates)
			var agg experiments.Result
			var reps []experiments.Result
			agg, reps, err = experiments.RunReplicatedContext(ctx, w.cfg, w.replicates, w.workers, onPoint)
			if err == nil {
				payload = EncodeRun(agg, reps)
			}
		case j.work.panel != nil:
			w := j.work.panel
			opts := w.opts
			j.setTotal(experiments.PanelPointCount(w.spec, opts))
			opts.OnPointDone = onPoint
			var pr experiments.PanelResult
			pr, err = experiments.RunPanelContext(ctx, w.spec, opts)
			if err == nil {
				payload = EncodePanel(pr)
			}
		case j.work.explore != nil:
			w := j.work.explore
			j.setTotal(w.points)
			s.metrics.explorePointsExpanded.Add(uint64(w.points))
			s.metrics.explorePointsDeduped.Add(uint64(w.deduped))
			var oc explore.Outcome
			oc, err = explore.Run(ctx, w.spec, w.opts, w.opts.Workers, s.exploreEvaluator(w), func(i int, p explore.Point, res experiments.Result, cached bool) {
				j.pointDone(experiments.PointDone{Index: i, Total: w.points, Model: p.Model, Rate: p.Rate, Result: res}, cached)
			})
			if err == nil {
				payload = EncodeExplore(w.spec, w.opts, oc)
			}
		default:
			err = fmt.Errorf("job has no work")
		}
	}()

	switch {
	case err == nil:
		b, merr := json.Marshal(payload)
		if merr != nil {
			j.setState(StateFailed, merr.Error())
			return
		}
		s.cachePut(j.Key, b)
		j.finish(b, false)
		s.log.Printf("job %s done", j.ID)
	case errors.Is(err, context.DeadlineExceeded):
		s.degradeOrFail(j, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		if msg := j.killReason(); msg != "" {
			j.setState(StateFailed, msg)
			s.log.Printf("job %s failed: %s", j.ID, msg)
		} else {
			j.setState(StateCancelled, "")
			s.log.Printf("job %s cancelled", j.ID)
		}
	default:
		j.setState(StateFailed, err.Error())
		s.log.Printf("job %s failed: %v", j.ID, err)
	}
}

// degradeOrFail settles a job whose exact answer can no longer be produced
// in time. Analyzable run jobs get an instant closed-form analytic estimate
// marked `degraded: true` — a useful answer in microseconds instead of an
// error — which is deliberately never cached; panels, explores and workloads
// outside the analytic models' validated domain fail with reason.
func (s *Server) degradeOrFail(j *Job, reason string) {
	if j.work.run != nil {
		if out, ok := EncodeDegradedRun(j.work.run.cfg, reason); ok {
			if b, err := json.Marshal(out); err == nil {
				if j.finishDegraded(b) {
					s.metrics.degradedAnswers.Add(1)
					s.log.Printf("job %s answered degraded: %s", j.ID, reason)
				}
				return
			}
		}
	}
	j.setState(StateFailed, reason)
	s.log.Printf("job %s failed: %s", j.ID, reason)
}

// exploreEvaluator builds the cache-through evaluator an explore job fans
// its lattice points through: each point is content-addressed under the
// exact run key POST /v1/runs would use for the same configuration, so
// explore points, single runs and overlapping explores all share cache
// entries — including durable ones from before a restart. A probe hit
// re-attaches the point's configuration to the cached bytes; a miss
// simulates and stores the run payload for the next request of either kind.
func (s *Server) exploreEvaluator(w *exploreWork) explore.Evaluator {
	return func(ctx context.Context, p explore.Point) (experiments.Result, bool, error) {
		key := RunKey(p.Cfg, w.opts.Replicates)
		if b, ok := s.cacheProbe(key); ok {
			if res, ok := decodeRunResult(b, p.Cfg); ok {
				s.metrics.explorePointsCacheHit.Add(1)
				return res, true, nil
			}
		}
		agg, reps, err := experiments.RunReplicatedContext(ctx, p.Cfg, w.opts.Replicates, 1, func(pd experiments.PointDone) {
			s.metrics.pointsSim.Add(1)
			s.metrics.cyclesSim.Add(uint64(pd.Result.Cycles))
		})
		if err != nil {
			return experiments.Result{}, false, err
		}
		if b, merr := json.Marshal(EncodeRun(agg, reps)); merr == nil {
			s.cachePut(key, b)
		}
		return agg, false, nil
	}
}

// countOutcome tallies each job's single terminal transition, keeping the
// invariant accepted == done + failed + cancelled once all jobs settle.
func (s *Server) countOutcome(st State) {
	switch st {
	case StateDone:
		s.metrics.jobsDone.Add(1)
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	case StateCancelled:
		s.metrics.jobsCancelled.Add(1)
	}
}

// submit registers and schedules (or answers from cache / an identical
// in-flight job) one parsed request.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind, key string, raw json.RawMessage, work jobWork) {
	j := s.store.Add(kind, key, raw, work, s.countOutcome, s.journalEvent)
	s.metrics.jobsAccepted.Add(1)
	if cached, ok := s.cacheGet(key); ok {
		j.finish(cached, true)
		s.metrics.cachedResponse.Add(1)
		writeJSON(w, http.StatusOK, j.Snapshot(true))
		return
	}
	// Coalesce with an identical uncached job that is already queued or
	// running: this job subscribes to that one's outcome instead of
	// simulating the same points twice.
	s.coMu.Lock()
	if e, ok := s.inflight[key]; ok {
		e.followers = append(e.followers, j)
		primaryID := e.primary.ID
		s.coMu.Unlock()
		s.metrics.jobsCoalesced.Add(1)
		s.log.Printf("job %s %s coalesced onto in-flight %s", j.ID, kind, primaryID)
		s.respondSubmitted(w, r, j)
		return
	}
	s.inflight[key] = &coalesceEntry{primary: j}
	s.coMu.Unlock()
	if err := s.enqueue(j); err != nil {
		// Shed with an answer where we can: an analyzable run turned away by
		// a full queue gets an instant degraded analytic estimate — 200 with
		// an honest error band beats a 503 for a client on a deadline.
		if errors.Is(err, ErrQueueFull) && s.shedDegrade(w, j) {
			return
		}
		s.failCoalesceChain(j, err)
		if errors.Is(err, ErrQueueFull) {
			// Backpressure is transient: tell well-behaved clients when to
			// come back instead of letting them hammer the queue.
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.respondSubmitted(w, r, j)
}

// enqueue classifies a job and hands it to the scheduler. The class is
// decided here, where it is consumed, and not when the request is parsed:
// classifying a run evaluates the closed-form model (an O(N²) path
// enumeration, milliseconds at N 64), and a request answered from the cache
// or coalesced onto an in-flight twin never queues, so it must not pay that.
func (s *Server) enqueue(j *Job) error {
	j.class = j.work.class()
	return s.sched.Enqueue(j)
}

// shedDegrade answers a load-shed run job (and any followers that coalesced
// onto it in the enqueue window) with a degraded analytic estimate,
// reporting whether it could. Only analyzable runs qualify; everything else
// falls through to the 503 path.
func (s *Server) shedDegrade(w http.ResponseWriter, j *Job) bool {
	if j.work.run == nil {
		return false
	}
	out, ok := EncodeDegradedRun(j.work.run.cfg, "shed: queue full")
	if !ok {
		return false
	}
	b, err := json.Marshal(out)
	if err != nil {
		return false
	}
	s.coMu.Lock()
	var followers []*Job
	if e, ok := s.inflight[j.Key]; ok && e.primary == j {
		followers = e.followers
		delete(s.inflight, j.Key)
	}
	s.coMu.Unlock()
	if j.finishDegraded(b) {
		s.metrics.degradedAnswers.Add(1)
		s.log.Printf("job %s shed with a degraded answer (queue full)", j.ID)
	}
	for _, f := range followers {
		if f.finishDegraded(b) {
			s.metrics.degradedAnswers.Add(1)
		}
	}
	writeJSON(w, http.StatusOK, j.Snapshot(true))
	return true
}

// respondSubmitted answers a successfully registered submission, honouring
// ?wait=1. A wait cut short by the client's request context (deadline or
// disconnect) answers 202 with the job's current state — the honest "still
// running, poll the job" status — never 200 with a non-terminal snapshot
// that a caller could mistake for a completed job.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, j *Job) {
	if wantWait(r) {
		j.WaitTerminal(r.Context())
		if j.State().terminal() {
			writeJSON(w, http.StatusOK, j.Snapshot(true))
		} else {
			writeJSON(w, http.StatusAccepted, j.Snapshot(false))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot(false))
}

// settleCoalesced resolves the followers of a finished primary: a cached
// result settles them all without simulating; otherwise (the primary failed
// or was cancelled) the first still-live follower is promoted to primary
// and scheduled, so one client's cancellation never cancels another
// client's identical request.
func (s *Server) settleCoalesced(j *Job) {
	s.coMu.Lock()
	e, ok := s.inflight[j.Key]
	if !ok || e.primary != j {
		s.coMu.Unlock()
		return
	}
	if len(e.followers) == 0 {
		delete(s.inflight, j.Key)
		s.coMu.Unlock()
		return
	}
	// Settle from the primary's own payload, not a cache probe: the bounded
	// LRU may already have evicted the entry under churn, and a done primary
	// must never trigger a duplicate simulation. A degraded primary settles
	// its followers degraded too — the payload says so, the flag must agree.
	if payload, degraded, ok := j.resultPayload(); ok {
		delete(s.inflight, j.Key)
		followers := e.followers
		s.coMu.Unlock()
		for _, f := range followers {
			switch {
			case degraded:
				if f.finishDegraded(payload) {
					s.metrics.degradedAnswers.Add(1)
				}
			case f.finish(payload, true):
				s.metrics.cachedResponse.Add(1)
			}
		}
		return
	}
	var live []*Job
	for _, f := range e.followers {
		if !f.State().terminal() {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		delete(s.inflight, j.Key)
		s.coMu.Unlock()
		return
	}
	next := live[0]
	e.primary = next
	e.followers = live[1:]
	s.coMu.Unlock()
	s.log.Printf("job %s promoted to primary after %s ended without a result", next.ID, j.ID)
	if err := s.enqueue(next); err != nil {
		s.failCoalesceChain(next, err)
	}
}

// failCoalesceChain fails a primary that queue backpressure rejected,
// together with any followers attached to it, clears the in-flight entry,
// and counts every job in the chain as a backpressure rejection.
func (s *Server) failCoalesceChain(j *Job, cause error) {
	s.coMu.Lock()
	var followers []*Job
	if e, ok := s.inflight[j.Key]; ok && e.primary == j {
		followers = e.followers
		delete(s.inflight, j.Key)
	}
	s.coMu.Unlock()
	j.setState(StateFailed, cause.Error())
	s.metrics.jobsRejected.Add(1)
	for _, f := range followers {
		f.setState(StateFailed, cause.Error())
		s.metrics.jobsRejected.Add(1)
	}
}

// handleRuns accepts POST /v1/runs.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	raw, req, ok := decodeBody[RunRequest](w, r)
	if !ok {
		return
	}
	key, work, err := buildRun(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.submit(w, r, "run", key, raw, work)
}

// handlePanels accepts POST /v1/panels.
func (s *Server) handlePanels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	raw, req, ok := decodeBody[PanelRequest](w, r)
	if !ok {
		return
	}
	key, work, err := buildPanel(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.submit(w, r, "panel", key, raw, work)
}

// handleExplore accepts POST /v1/explore: a design-space exploration over a
// parameter lattice, answered with the latency/throughput/cost Pareto front.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	raw, req, ok := decodeBody[ExploreRequest](w, r)
	if !ok {
		return
	}
	key, work, err := buildExplore(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.submit(w, r, "explore", key, raw, work)
}

// handleModels serves GET /v1/models: the registered network models, their
// descriptions and an example valid size — the service-side face of the
// model registry.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, Models())
}

// handleJobList serves GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	jobs := s.store.List()
	out := make([]JobJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot(false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleJob serves GET /v1/jobs/{id}, GET /v1/jobs/{id}/events,
// POST /v1/jobs/{id}/cancel and DELETE /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		if wantWait(r) {
			j.WaitTerminal(r.Context())
		}
		writeJSON(w, http.StatusOK, j.Snapshot(true))
	case sub == "" && r.Method == http.MethodDelete,
		sub == "cancel" && r.Method == http.MethodPost:
		j.Cancel()
		writeJSON(w, http.StatusOK, j.Snapshot(false))
	case sub == "events" && r.Method == http.MethodGet:
		s.streamEvents(w, r, j)
	default:
		httpError(w, http.StatusNotFound, fmt.Sprintf("no route %s /v1/jobs/%s/%s", r.Method, id, sub))
	}
}

// streamEvents replays a job's progress events as NDJSON and follows until
// the job is terminal or the client goes away. ?from=N skips the first N
// events, so a reconnecting client resumes exactly where its last stream
// broke instead of re-reading (or missing) the prefix.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	n := 0
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid from=%q", v))
			return
		}
		n = parsed
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, terminal := j.EventsSince(n)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		n += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// Drain any events appended between EventsSince and here.
			if evs, _ := j.EventsSince(n); len(evs) == 0 {
				return
			}
			continue
		}
		j.WaitChange(r.Context(), n)
		if r.Context().Err() != nil {
			return
		}
	}
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.Snapshot().writeProm(w)
}

// handleHealth serves GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// wantWait reports whether the request asked to block until the job is
// terminal (?wait=1).
func wantWait(r *http.Request) bool {
	v := r.URL.Query().Get("wait")
	return v == "1" || v == "true"
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 1 << 20

// decodeBody reads and decodes a JSON body, reporting HTTP errors itself.
func decodeBody[T any](w http.ResponseWriter, r *http.Request) (json.RawMessage, T, bool) {
	var req T
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return nil, req, false
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode body: "+err.Error())
		return nil, req, false
	}
	if dec.More() {
		httpError(w, http.StatusBadRequest, "decode body: trailing data after the request object")
		return nil, req, false
	}
	return raw, req, true
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
