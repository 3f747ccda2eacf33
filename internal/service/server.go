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
	"time"

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
// store, cache, durability layer and metrics behind it. A submission crosses
// it in one line: parse (kinds) → register (store) → tier.get → co.join →
// admit → execute [tier.probe → work.run → tier.put → Job.finish] → settle.
type Server struct {
	log     *log.Logger
	store   *Store
	metrics *Metrics
	sched   *Scheduler
	mux     *http.ServeMux

	// tier is the result cache (memory over the breaker-guarded disk store);
	// co merges identical in-flight submissions onto one simulation.
	tier *resultTier
	co   *coalescer
	// journal (nil without a DataDir) mirrors every job event to disk, so a
	// restarted daemon rebuilds its job records and re-enqueues live work.
	journal *dstore.Journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
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
		log:     lg,
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		co:      newCoalescer(),
		baseCtx: ctx, baseCancel: cancel,
	}
	s.tier = &resultTier{
		mem:     NewCache(cfg.CacheBytes),
		breaker: NewBreaker(cfg.BreakerThreshold, breakerBaseBackoff, breakerMaxBackoff),
		metrics: s.metrics, log: lg,
	}
	if cfg.DataDir != "" {
		fs := faultinject.FS(faultinject.OS{})
		if cfg.Chaos != nil {
			fs = cfg.Chaos.Wrap(fs)
			lg.Printf("CHAOS ENABLED: injecting store faults (%s)", cfg.Chaos.Spec())
		}
		var err error
		s.tier.disk, err = dstore.OpenFS(filepath.Join(cfg.DataDir, "results"), cfg.StoreBytes, fs)
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
	}, s.countOutcome, s.journalEvent)
	s.sched = NewScheduler(cfg.Workers, cfg.QueueCap, s.execute)
	s.recoverJobs()
	if cfg.WatchdogStall > 0 {
		go s.watchdog(cfg.WatchdogStall)
	}
	for _, k := range kinds {
		s.mux.HandleFunc(k.route, s.handleSubmit(k))
	}
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/jobs", s.handleJobList)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s, nil
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

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
	defer s.settle(j)
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	// A cancellation that raced the dequeue leaves the job terminal and
	// without execution state; anything later cancels ctx through the hook
	// dequeue hands over. From here on x is the executor's own: a terminal
	// transition clears the job's pointer, never x.
	x := j.dequeue(cancel)
	if x == nil {
		return
	}
	// Re-check the cache at dequeue time: an identical job may have finished
	// while this one sat in the queue (the back-to-back duplicate pattern a
	// burst of identical clients produces).
	if cached, ok := s.tier.probe(j.Key); ok {
		if j.finish(cached, true, false) {
			s.log.Printf("job %s %s served from cache at dequeue", j.ID, j.Kind)
		}
		return
	}
	if !x.deadlineAt.IsZero() {
		// The budget ran down while the job sat in the queue: answer now
		// without simulating a single cycle.
		if !time.Now().Before(x.deadlineAt) {
			s.degradeOrFail(j, x.work, "deadline expired while queued")
			return
		}
		var cancelDl context.CancelFunc
		ctx, cancelDl = context.WithDeadline(ctx, x.deadlineAt)
		defer cancelDl()
	}
	if !j.setState(StateRunning, "") {
		return // a cancellation won the race; ctx is (or will be) cancelled
	}
	s.log.Printf("job %s %s key=%.12s running", j.ID, j.Kind, j.Key)

	payload, err := s.runGuarded(ctx, j, x.work)
	switch {
	case err == nil:
		s.tier.put(j.Key, payload)
		j.finish(payload, false, false)
		s.log.Printf("job %s done", j.ID)
	case errors.Is(err, context.DeadlineExceeded):
		s.degradeOrFail(j, x.work, "deadline exceeded")
	case errors.Is(err, context.Canceled) && j.killReason(x) == "":
		j.setState(StateCancelled, "")
		s.log.Printf("job %s cancelled", j.ID)
	case errors.Is(err, context.Canceled):
		s.fail(j, j.killReason(x)) // the watchdog's diagnosis
	default:
		s.fail(j, err.Error())
	}
}

// runGuarded runs j's work w with panic isolation: a crash anywhere in the
// simulation stack fails this job with a diagnosis instead of tearing down
// the daemon and every other job with it.
func (s *Server) runGuarded(ctx context.Context, j *Job, w work) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panicsRecovered.Add(1)
			s.log.Printf("job %s panicked: %v\n%s", j.ID, r, debug.Stack())
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return w.run(ctx, s, j)
}

// fail ends j as failed with a diagnosis.
func (s *Server) fail(j *Job, msg string) {
	j.setState(StateFailed, msg)
	s.log.Printf("job %s failed: %s", j.ID, msg)
}

// degrade answers a job whose exact result cannot be produced in time — its
// deadline ran out, queued or running, or the queue turned it away — with the
// work's instant analytic stand-in marked `degraded: true`: a useful answer
// in microseconds instead of an error, deliberately never cached. It reports
// whether the work w has one; panels, explores and workloads outside the
// analytic models' validated domain do not.
func (s *Server) degrade(j *Job, w work, reason string) bool {
	out, ok := w.degraded(reason)
	if !ok {
		return false
	}
	b, err := json.Marshal(out)
	if err != nil {
		return false
	}
	if j.finish(b, false, true) {
		s.log.Printf("job %s answered degraded: %s", j.ID, reason)
	}
	return true
}

// degradeOrFail settles a job with work w that ran out of deadline.
func (s *Server) degradeOrFail(j *Job, w work, reason string) {
	if !s.degrade(j, w, reason) {
		s.fail(j, reason)
	}
}

// countOutcome is the one site that counts a job's end: it tallies each job's
// single terminal transition — the outcome and, for an answer, whether it was
// cached or degraded, for a failure whether the queue rejected it — keeping
// the invariant accepted == done + failed + cancelled once all jobs settle.
// The job calls it with its lock held, before anyone waiting on it wakes.
func (s *Server) countOutcome(j *Job) {
	switch j.state {
	case StateDone:
		s.metrics.jobsDone.Add(1)
		switch {
		case j.degraded:
			s.metrics.degradedAnswers.Add(1)
		case j.cached:
			s.metrics.cachedResponse.Add(1)
		}
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
		if j.rejected {
			s.metrics.jobsRejected.Add(1)
		}
	case StateCancelled:
		s.metrics.jobsCancelled.Add(1)
	}
}

// admit classifies a primary with its parsed work w, gives it its execution
// state and hands it to the scheduler. A job that ended before it could queue
// (a cancellation) is settled at once. A job the scheduler turns away ends
// here and now — answered degraded if a full queue shed it and its work has
// an analytic stand-in, failed and counted as a backpressure rejection
// otherwise — and is settled like any other finished primary; the
// scheduler's error is returned either way.
func (s *Server) admit(j *Job, w work, deadline time.Duration) error {
	c := w.class()
	if !j.arm(w, deadline) {
		s.settle(j)
		return nil
	}
	err := s.sched.Enqueue(j, c)
	if err != nil {
		if !errors.Is(err, ErrQueueFull) || !s.degrade(j, w, "shed: queue full") {
			j.reject(err.Error())
		}
		s.settle(j)
	}
	return err
}

// settle resolves whatever coalesced onto the terminal job j. A result
// settles every follower without simulating — from j's own payload, not a
// cache probe: the bounded LRU may already have evicted the entry under
// churn, and a done primary must never trigger a duplicate simulation; a
// degraded primary settles its followers degraded too (the payload says so,
// the flag must agree). A primary that ended without a result hands the key
// to its first still-live follower, which is admitted in its place.
func (s *Server) settle(j *Job) {
	payload, degraded, ok := j.resultPayload()
	followers, next := s.co.release(j, ok)
	for _, f := range followers {
		f.finish(payload, !degraded, degraded)
	}
	if next.Job != nil {
		s.log.Printf("job %s promoted to primary after %s ended without a result", next.ID, j.ID)
		s.admit(next.Job, next.work, next.deadline)
	}
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
			return
		}
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot(false))
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 1 << 20

// readBody reads a request body of at most maxBodyBytes into a buffer of
// exactly its size, since the job record keeps it as the request echo: a
// body with a declared length is read straight into a buffer that long, a
// streamed one through io.ReadAll and then copied to its length.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		raw := make([]byte, n)
		_, err := io.ReadFull(body, raw)
		return raw, err
	}
	raw, err := io.ReadAll(body)
	return bytes.Clone(raw), err
}

// handleSubmit is the POST handler of one job kind, the front of the
// pipeline: read the bounded body, parse it through the kind's table row,
// register the job, then answer it from the cache, attach it to an identical
// in-flight job, or admit it. A body the parser refuses is a 400 and leaves
// no trace — no job id, queue slot, counter or journal file.
func (s *Server) handleSubmit(k kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		raw, err := readBody(w, r)
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, "read body: "+err.Error())
			return
		}
		key, wk, deadline, err := k.parse(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		j := s.store.Add(k.name, key, raw)
		s.metrics.jobsAccepted.Add(1)
		if cached, ok := s.tier.get(key); ok {
			j.finish(cached, true, false)
			writeJSON(w, http.StatusOK, j.Snapshot(true))
			return
		}
		// Coalesce with an identical uncached job that is already queued or
		// running: this job subscribes to that one's outcome instead of
		// simulating the same points twice.
		if primary := s.co.join(j, wk, deadline); primary != nil {
			s.metrics.jobsCoalesced.Add(1)
			s.log.Printf("job %s %s coalesced onto in-flight %s", j.ID, k.name, primary.ID)
			s.respondSubmitted(w, r, j)
			return
		}
		switch err := s.admit(j, wk, deadline); {
		case err == nil:
			s.respondSubmitted(w, r, j)
		case j.State() == StateDone:
			// Shed with an answer: 200 with an honest error band beats a 503
			// for a client on a deadline.
			writeJSON(w, http.StatusOK, j.Snapshot(true))
		default:
			if errors.Is(err, ErrQueueFull) {
				// Backpressure is transient: tell well-behaved clients when to
				// come back instead of letting them hammer the queue.
				w.Header().Set("Retry-After", "1")
			}
			httpError(w, http.StatusServiceUnavailable, err.Error())
		}
	}
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
	for _, m := range s.exposition() {
		m.write(w)
	}
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
