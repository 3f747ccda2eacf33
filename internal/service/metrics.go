package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Metrics aggregates the daemon's operational counters. Everything is
// atomic so the simulation hot path (per-point callbacks) never contends on
// a lock.
type Metrics struct {
	start          time.Time
	jobsAccepted   atomic.Uint64
	jobsDone       atomic.Uint64
	jobsFailed     atomic.Uint64
	jobsCancelled  atomic.Uint64
	jobsRejected   atomic.Uint64
	jobsCoalesced  atomic.Uint64
	jobsRecovered  atomic.Uint64
	storeHits      atomic.Uint64
	pointsSim      atomic.Uint64
	cyclesSim      atomic.Uint64
	cachedResponse atomic.Uint64
	// Design-space exploration counters: lattice points expanded into jobs,
	// duplicate points collapsed at expansion, and points answered from the
	// per-point result cache instead of simulating.
	explorePointsExpanded atomic.Uint64
	explorePointsDeduped  atomic.Uint64
	explorePointsCacheHit atomic.Uint64
	// Robustness counters: degraded analytic answers served under deadline
	// pressure or load shedding, jobs the watchdog cancelled for making no
	// progress, panics converted into single-job failures, and disk-store
	// I/O failures (the circuit breaker's input signal).
	degradedAnswers atomic.Uint64
	watchdogCancels atomic.Uint64
	panicsRecovered atomic.Uint64
	storeFaults     atomic.Uint64
}

// NewMetrics starts the uptime clock.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// series is one /metrics series: its exposition name, HELP text and sample.
// A counter's sample is read by count and printed with %d, a gauge's by
// gauge and printed with %g.
type series struct {
	name, help string
	count      func() uint64
	gauge      func() float64
}

func counter(name, help string, read func() uint64) series {
	return series{name: name, help: help, count: read}
}

func gauge(name, help string, read func() float64) series {
	return series{name: name, help: help, gauge: read}
}

// num reads an integer statistic as a gauge sample.
func num[T ~int | ~int64](read func() T) func() float64 {
	return func() float64 { return float64(read()) }
}

// ratio is a/b, or 0 before there is any b.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// write renders the series in the Prometheus text exposition format.
func (m series) write(w io.Writer) {
	if m.count != nil {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.count())
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", m.name, m.help, m.name, m.name, m.gauge())
}

// exposition is every /metrics series of s in the order GET /metrics serves
// them: a series is added here, and nowhere else. The disk-store series read
// 0 when the daemon keeps no data dir.
func (s *Server) exposition() []series {
	m, mem := s.metrics, s.tier.mem
	uptime := func() float64 { return time.Since(m.start).Seconds() }
	queued := func(c Class) func() float64 { return func() float64 { return float64(s.sched.DepthClass(c)) } }
	diskLen, diskBytes, diskEvictions := func() int { return 0 }, func() int64 { return 0 }, func() uint64 { return 0 }
	if d := s.tier.disk; d != nil {
		diskLen, diskBytes = d.Len, d.Bytes
		diskEvictions = func() uint64 { _, _, evictions := d.Stats(); return evictions }
	}
	return []series{
		gauge("quarcd_uptime_seconds", "Seconds since the daemon started.", uptime),
		gauge("quarcd_queue_depth", "Jobs queued and not yet executing.", num(s.sched.Depth)),
		gauge("quarcd_queue_depth_interactive", "Interactive-class jobs queued and not yet executing.", queued(ClassInteractive)),
		gauge("quarcd_queue_depth_batch", "Batch-class jobs queued and not yet executing.", queued(ClassBatch)),
		gauge("quarcd_jobs_running", "Jobs currently executing.", num(s.sched.Running)),
		counter("quarcd_jobs_accepted_total", "Jobs submitted; each eventually counts done, failed or cancelled.", m.jobsAccepted.Load),
		counter("quarcd_jobs_done_total", "Jobs finished successfully.", m.jobsDone.Load),
		counter("quarcd_jobs_failed_total", "Jobs finished with an error.", m.jobsFailed.Load),
		counter("quarcd_jobs_cancelled_total", "Jobs cancelled before completion.", m.jobsCancelled.Load),
		counter("quarcd_jobs_rejected_total", "Submissions rejected by queue backpressure.", m.jobsRejected.Load),
		counter("quarcd_jobs_coalesced_total", "Submissions attached to an identical in-flight job instead of simulating.", m.jobsCoalesced.Load),
		counter("quarcd_cached_responses_total", "Jobs answered from the result cache without simulating.", m.cachedResponse.Load),
		counter("quarcd_cache_hits_total", "Result-cache lookup hits.", func() uint64 { hits, _ := mem.Stats(); return hits }),
		counter("quarcd_cache_misses_total", "Result-cache lookup misses.", func() uint64 { _, misses := mem.Stats(); return misses }),
		gauge("quarcd_cache_entries", "Entries resident in the result cache.", num(mem.Len)),
		gauge("quarcd_cache_bytes", "Payload bytes resident in the in-memory result cache.", num(mem.Bytes)),
		gauge("quarcd_cache_hit_rate", "Lifetime cache hit fraction.", func() float64 { hits, misses := mem.Stats(); return ratio(float64(hits), float64(hits+misses)) }),
		counter("quarcd_store_hits_total", "Memory-cache misses answered from the disk result store.", m.storeHits.Load),
		gauge("quarcd_store_entries", "Entries resident in the disk result store.", num(diskLen)),
		gauge("quarcd_store_bytes", "Payload bytes resident in the disk result store.", num(diskBytes)),
		counter("quarcd_store_evictions_total", "Disk-store entries evicted to fit the byte budget.", diskEvictions),
		counter("quarcd_jobs_recovered_total", "Job records rebuilt from journals at boot.", m.jobsRecovered.Load),
		counter("quarcd_points_simulated_total", "Simulations completed: one per replicate of a design point, whatever job ran it.", m.pointsSim.Load),
		counter("quarcd_cycles_simulated_total", "Fabric cycles simulated.", m.cyclesSim.Load),
		counter("quarcd_explore_points_expanded_total", "Lattice points expanded by explore jobs.", m.explorePointsExpanded.Load),
		counter("quarcd_explore_points_deduped_total", "Duplicate lattice points collapsed at explore expansion.", m.explorePointsDeduped.Load),
		counter("quarcd_explore_points_cache_hit_total", "Explore lattice points answered from the per-point result cache.", m.explorePointsCacheHit.Load),
		counter("quarcd_degraded_answers_total",
			"Jobs answered with a degraded analytic estimate under deadline pressure or load shedding.", m.degradedAnswers.Load),
		counter("quarcd_watchdog_cancels_total", "Running jobs the watchdog cancelled for making no point progress.", m.watchdogCancels.Load),
		counter("quarcd_panics_recovered_total", "Job panics converted into single-job failures instead of daemon crashes.", m.panicsRecovered.Load),
		counter("quarcd_store_faults_total", "Disk result-store I/O failures observed by the serving path.", m.storeFaults.Load),
		gauge("quarcd_store_breaker_state", "Disk-store circuit breaker state: 0 closed, 1 open, 2 half-open.", num(s.tier.breaker.State)),
		counter("quarcd_store_breaker_opens_total", "Disk-store circuit breaker open transitions.", s.tier.breaker.Opens),
		gauge("quarcd_cycles_per_second", "Lifetime average simulated cycles per wall-clock second.", func() float64 { return ratio(float64(m.cyclesSim.Load()), uptime()) }),
	}
}
