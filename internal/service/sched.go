package service

import (
	"errors"
	"fmt"
	"sync"

	"quarc/internal/analytic"
	"quarc/internal/experiments"
	"quarc/internal/traffic"
)

// Class is a job's scheduling class. Interactive jobs (cheap single runs)
// jump ahead of batch jobs (panels, explores, and any run whose estimated
// work is batch-sized), so a dashboard query is never stuck behind an
// hour-long sweep in the old single FIFO.
type Class int

const (
	ClassInteractive Class = iota
	ClassBatch
	numClasses
)

// String names the class for logs and metrics.
func (c Class) String() string {
	if c == ClassInteractive {
		return "interactive"
	}
	return "batch"
}

// interactiveWeight is the number of consecutive interactive dequeues
// allowed while batch work waits. After that many, the next dequeue is
// forced to take from the batch queue, guaranteeing batch at least
// 1/(interactiveWeight+1) of the executor dequeues under a saturating
// interactive load — priority without starvation.
const interactiveWeight = 3

// Enqueue failure causes, distinguishable with errors.Is so the HTTP layer
// can map backpressure to 503 + Retry-After.
var (
	ErrQueueFull   = errors.New("job queue full")
	ErrSchedClosed = errors.New("scheduler is shutting down")
)

// Scheduler executes jobs on a fixed pool of executor goroutines fed by two
// bounded FIFO queues, one per scheduling class. Executors prefer the
// interactive queue but are forced to the batch queue after
// interactiveWeight consecutive interactive picks made while batch work
// waited (weighted fair pick), so a burst of submissions queues up instead
// of spawning unbounded concurrent simulations, cheap jobs overtake
// long-running sweeps, and sweeps still make progress under any load.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	cap     int
	queues  [numClasses][]*Job
	streak  int // consecutive interactive picks while batch waited
	running int
	wg      sync.WaitGroup
}

// NewScheduler starts workers executor goroutines over queues holding at
// most queueCap jobs in total; exec runs one job to a terminal state.
func NewScheduler(workers, queueCap int, exec func(*Job)) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	s := &Scheduler{cap: queueCap}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				s.mu.Lock()
				for !s.closed && s.queuedLocked() == 0 {
					s.cond.Wait()
				}
				if s.queuedLocked() == 0 {
					s.mu.Unlock()
					return // closed and drained
				}
				j := s.pickLocked()
				s.running++
				s.mu.Unlock()
				exec(j)
				s.mu.Lock()
				s.running--
				s.mu.Unlock()
			}
		}()
	}
	return s
}

func (s *Scheduler) queuedLocked() int {
	return len(s.queues[ClassInteractive]) + len(s.queues[ClassBatch])
}

// pickLocked dequeues the next job under the weighted-fair policy:
// interactive first, except that batch work waiting through
// interactiveWeight consecutive interactive picks forces a batch pick.
func (s *Scheduler) pickLocked() *Job {
	c := ClassInteractive
	switch {
	case len(s.queues[ClassBatch]) > 0 &&
		(len(s.queues[ClassInteractive]) == 0 || s.streak >= interactiveWeight):
		c = ClassBatch
		s.streak = 0
	case len(s.queues[ClassBatch]) > 0:
		s.streak++
	default:
		s.streak = 0
	}
	q := s.queues[c]
	j := q[0]
	q[0] = nil // release the reference for GC; the backing array is reused
	s.queues[c] = q[1:]
	return j
}

// Enqueue submits a job to the queue of class c; it fails with ErrQueueFull
// when the queues are full (backpressure) and ErrSchedClosed when the
// scheduler is draining.
func (s *Scheduler) Enqueue(j *Job, c Class) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSchedClosed
	}
	if s.queuedLocked() >= s.cap {
		return fmt.Errorf("%w (%d pending)", ErrQueueFull, s.cap)
	}
	s.queues[c] = append(s.queues[c], j)
	s.cond.Signal()
	return nil
}

// Depth returns the number of queued (not yet executing) jobs.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// DepthClass returns the queued jobs of one class.
func (s *Scheduler) DepthClass(c Class) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[c])
}

// Running returns the number of jobs currently executing.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Close stops intake and, once the already-queued jobs have drained, stops
// the executors. It blocks until they exit; bound it by cancelling the jobs'
// contexts first if a deadline matters.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// interactiveMaxCost is the weighted router-cycle budget (cycles x nodes x
// estimated active fraction) under which a run job is admitted to the
// interactive class — roughly a second of simulation. The paper-default
// run (N=16, 55k cycles) lands far below it even fully saturated; a
// 400M-cycle soak lands far above.
const interactiveMaxCost = 100e6

// runCost estimates a run job's simulated work in weighted router-cycles.
// The activity-driven stepper only steps routers with buffered work, so at
// low load most of the fabric sleeps; the closed-form models in
// internal/analytic predict how close the offered load sits to the busiest
// channel's saturation point, which bounds that active fraction. Workloads
// the analytic models do not cover (non-uniform patterns, bursty sources,
// multicast) conservatively count the whole fabric active.
func runCost(cfg experiments.Config, replicates int) float64 {
	if replicates < 1 {
		replicates = 1
	}
	cycles := float64(cfg.Warmup + cfg.Measure + cfg.Drain)
	activity := 1.0
	if analyzableWorkload(cfg) {
		if sat, ok := analytic.SaturationRate(cfg.ModelName(), cfg.N, cfg.MsgLen); ok && sat > 0 {
			u := cfg.Rate / sat
			switch {
			case u < 0.05:
				u = 0.05 // warmup/drain keep a floor of activity
			case u > 1:
				u = 1
			}
			activity = u
		}
	}
	return float64(replicates) * cycles * float64(cfg.N) * activity
}

// analyzableWorkload reports whether a configuration sits inside the domain
// the closed-form models in internal/analytic are validated for: uniform
// Bernoulli traffic with no hotspot bias, bursty source or multicast, at a
// buffer depth above 1 (the models take no depth, and a depth-1 unicast
// completes up to M-1 cycles after their zero-load form). Both the admission
// cost estimator and the degraded-answer path key off it — a workload the
// analytic model has never been checked against must not be served as an
// "estimate with a 10% band", and its cost counts it as fully active.
func analyzableWorkload(cfg experiments.Config) bool {
	return cfg.Pattern == traffic.Uniform && cfg.HotspotBias == 0 &&
		cfg.BurstMeanOn == 0 && cfg.McastFrac == 0 && cfg.Depth != 1
}

// classifyRun assigns a run job its scheduling class from the analytic cost
// estimate: interactive unless the estimated work is batch-sized.
func classifyRun(cfg experiments.Config, replicates int) Class {
	if runCost(cfg, replicates) <= interactiveMaxCost {
		return ClassInteractive
	}
	return ClassBatch
}
