// Command quarcd serves the simulator over a JSON HTTP API: submit single
// runs (POST /v1/runs), figure-panel sweeps (POST /v1/panels) or
// design-space explorations answered with a latency/throughput/cost Pareto
// front (POST /v1/explore), enumerate the registered network models
// (GET /v1/models), poll or wait on jobs
// (GET /v1/jobs/{id}?wait=1), stream per-point progress as NDJSON
// (GET /v1/jobs/{id}/events), cancel (POST /v1/jobs/{id}/cancel), and scrape
// operational counters (GET /metrics). Identical requests are served
// bit-identically from a content-addressed LRU result cache, and an
// identical uncached request arriving while its twin is queued or running
// coalesces onto it instead of simulating twice.
//
// With -data-dir the daemon is durable: finished results persist to a
// content-addressed, byte-bounded disk store and every job's event stream
// to an append-only journal, so a restarted (even SIGKILLed) daemon serves
// previous results byte-identically with zero points re-simulated, replays
// event streams across restarts, and re-enqueues jobs that were queued or
// running when it died.
//
// The serving path is chaos-hardened: a circuit breaker degrades to
// memory-cache-only when the disk store misbehaves, per-request deadlines
// (deadline_ms) and queue shedding answer analyzable runs with instant
// analytic estimates marked degraded, a watchdog cancels jobs making no
// progress, and job panics fail one job, not the daemon. -chaos (or
// QUARCD_CHAOS) injects a deterministic fault plan into the store's
// filesystem boundary to prove all of that under fire:
//
//	quarcd -data-dir /tmp/qd -chaos 'seed=42,err=0.1,torn=0.05,slow=0.02,delay=2ms'
//
// Examples:
//
//	quarcd -addr :8080
//	quarcd -addr :8080 -data-dir /var/lib/quarcd
//	curl -s localhost:8080/v1/models
//	curl -s localhost:8080/v1/runs?wait=1 -d '{"n":16,"rate":0.01,"beta":0.05}'
//	curl -s localhost:8080/v1/runs?wait=1 -d '{"topo":"ring","n":16,"rate":0.005}'
//	curl -s localhost:8080/v1/panels -d '{"n":16,"beta":0.05,"opts":{"replicates":3}}'
//	curl -s localhost:8080/v1/explore -d '{"models":["quarc","spidergon"],"ns":[16,32],"rates":[0.005,0.01]}'
//	curl -N localhost:8080/v1/jobs/j000001/events
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"quarc/internal/faultinject"
	"quarc/internal/service"
)

// Connection timeouts. A client gets readHeaderTimeout to deliver a request
// header and a keep-alive connection may sit idle for idleTimeout; without
// them a peer that opens a socket and trickles (or never sends) a request
// line pins a goroutine and a descriptor for as long as it likes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the daemon's listener-side server. WriteTimeout stays
// zero on purpose: ?wait=1 responses and /events streams are long-lived by
// design, bounded by the job (deadline_ms, the watchdog, cancellation) and
// not by the socket.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "jobs executing concurrently (each sweep additionally fans across its own goroutines)")
		queueCap     = flag.Int("queue", 256, "max queued jobs before submissions get 503")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "in-memory result-cache budget (payload bytes)")
		dataDir      = flag.String("data-dir", "", "durability directory (empty = fully in-memory)")
		storeBytes   = flag.Int64("store-bytes", 1<<30, "on-disk result-store budget (payload bytes; needs -data-dir)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to finish queued and running jobs on shutdown")
		quiet        = flag.Bool("quiet", false, "suppress per-job log lines")
		chaosSpec    = flag.String("chaos", os.Getenv("QUARCD_CHAOS"), "fault-injection plan for the disk store, e.g. 'seed=42,err=0.1,torn=0.05,slow=0.02,delay=2ms,ops=4000' (default $QUARCD_CHAOS; empty = disabled)")
		watchdog     = flag.Duration("watchdog-stall", 10*time.Minute, "cancel running jobs making no point progress for this long (0 = disabled)")
		breakerK     = flag.Int("breaker-threshold", 5, "consecutive disk-store failures that open the circuit breaker (memory-cache-only until a probe succeeds)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "quarcd: ", log.LstdFlags)
	jobLog := logger
	if *quiet {
		jobLog = nil
	}
	var chaos *faultinject.Plan
	if *chaosSpec != "" {
		spec, err := faultinject.ParseSpec(*chaosSpec)
		if err != nil {
			logger.Fatalf("-chaos: %v", err)
		}
		if *dataDir == "" {
			logger.Fatalf("-chaos needs -data-dir: the fault plan wraps the disk store")
		}
		chaos = faultinject.New(spec)
	}
	svc, err := service.New(service.Config{
		Workers: *workers, QueueCap: *queueCap, CacheBytes: *cacheBytes,
		DataDir: *dataDir, StoreBytes: *storeBytes,
		Chaos: chaos, WatchdogStall: *watchdog, BreakerThreshold: *breakerK, Log: jobLog,
	})
	if err != nil {
		logger.Fatalf("init: %v", err)
	}

	httpSrv := newHTTPServer(*addr, svc.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	durable := "in-memory only"
	if *dataDir != "" {
		durable = "data dir " + *dataDir
	}
	logger.Printf("listening on %s (%d executors, queue %d, cache %d bytes, %s)",
		*addr, *workers, *queueCap, *cacheBytes, durable)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	logger.Printf("shutting down: draining jobs (up to %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Drain(drainCtx); err != nil {
		logger.Printf("drain incomplete, cancelled remaining jobs: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	logger.Printf("bye")
}
