package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"quarc/internal/experiments"
)

// schedJob builds a bare job for scheduler unit tests (no work, no sinks).
func schedJob(id string) *Job { return newJob(id, "run", "k-"+id, nil, nil, nil) }

// waitRunning polls until the scheduler reports n executing jobs.
func waitRunning(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Running() != n {
		if time.Now().After(deadline) {
			t.Fatalf("running=%d, want %d", s.Running(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The weighted-fair pick: interactive jobs go first, but batch work waiting
// through interactiveWeight consecutive interactive picks forces a batch
// pick — priority with a hard no-starvation bound of at least
// 1/(interactiveWeight+1) of the dequeues.
func TestSchedulerWeightedFairOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	var wg sync.WaitGroup
	exec := func(j *Job) {
		if j.ID == "gate" {
			<-gate
			return
		}
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
		wg.Done()
	}
	s := NewScheduler(1, 32, exec)
	defer s.Close()

	// Park the single executor so every later enqueue lands in the queues
	// and the dequeue order is decided by pickLocked alone.
	if err := s.Enqueue(schedJob("gate"), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)

	var jobs []*Job
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, schedJob(fmt.Sprintf("I%d", i)))
	}
	batch := []*Job{schedJob("B1"), schedJob("B2")}
	// Enqueue batch first so it is always "waiting" during interactive picks.
	for _, j := range batch {
		wg.Add(1)
		if err := s.Enqueue(j, ClassBatch); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		wg.Add(1)
		if err := s.Enqueue(j, ClassInteractive); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	wg.Wait()

	want := []string{"I1", "I2", "I3", "B1", "I4", "I5", "I6", "B2", "I7", "I8"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("executed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", order, want)
		}
	}
}

// Backpressure and shutdown are distinguishable error causes.
func TestSchedulerQueueFullAndClosed(t *testing.T) {
	gate := make(chan struct{})
	s := NewScheduler(1, 2, func(j *Job) { <-gate })
	if err := s.Enqueue(schedJob("running"), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	if err := s.Enqueue(schedJob("q1"), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(schedJob("q2"), ClassBatch); err != nil {
		t.Fatal(err)
	}
	err := s.Enqueue(schedJob("q3"), ClassInteractive)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap enqueue: %v, want ErrQueueFull", err)
	}
	if s.Depth() != 2 || s.DepthClass(ClassBatch) != 1 {
		t.Fatalf("depth=%d batch=%d", s.Depth(), s.DepthClass(ClassBatch))
	}
	close(gate)
	s.Close()
	if err := s.Enqueue(schedJob("late"), ClassInteractive); !errors.Is(err, ErrSchedClosed) {
		t.Fatalf("post-close enqueue: %v, want ErrSchedClosed", err)
	}
}

// classifyRun admits cheap runs (the analytic cost estimate bounds their
// simulated work) to the interactive class and sends soak-sized runs to
// batch, where they cannot block dashboard queries.
func TestClassifyRun(t *testing.T) {
	quick := experiments.Config{
		Model: "quarc", N: 16, MsgLen: 16, Depth: 4, Rate: 0.01,
		Warmup: 2000, Measure: 10000, Drain: 20000, Seed: 1,
	}
	if got := classifyRun(quick, 1); got != ClassInteractive {
		t.Fatalf("paper-default run classified %s, want interactive (cost %g)",
			got, runCost(quick, 1))
	}
	soak := quick
	soak.Measure = 400_000_000
	if got := classifyRun(soak, 1); got != ClassBatch {
		t.Fatalf("400M-cycle soak classified %s, want batch (cost %g)",
			got, runCost(soak, 1))
	}
	// Replication multiplies the estimate: enough replicates push an
	// otherwise-cheap run over the interactive budget.
	if runCost(quick, 50) <= runCost(quick, 1) {
		t.Fatal("replicates do not scale the cost estimate")
	}
	// The analytic models bound the active fraction for uniform traffic, so
	// a lightly loaded run costs less than the same run at saturation.
	hot := quick
	hot.Rate = 0.5
	if runCost(quick, 1) >= runCost(hot, 1) {
		t.Fatalf("low-load cost %g not below saturated cost %g",
			runCost(quick, 1), runCost(hot, 1))
	}
	// Workloads the analytic models do not cover count the whole fabric.
	mcast := quick
	mcast.McastFrac, mcast.McastSize = 0.2, 4
	if runCost(mcast, 1) < runCost(hot, 1) {
		t.Fatal("non-analyzable workload got an activity discount")
	}
}
