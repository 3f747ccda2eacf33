package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quarc/internal/experiments"
)

// probeWork is a work for jobs whose deadline has expired by the time they
// are dequeued: the executor must answer them from the work it took at
// dequeue, even when a Cancel has torn the job's execution state down since.
// Had it read the job's cleared pointer instead, the nil work would panic the
// executor and with it the test binary.
type probeWork struct {
	t        *testing.T
	degrades *atomic.Int64
}

func (w *probeWork) run(ctx context.Context, s *Server, j *Job) ([]byte, error) {
	w.t.Error("an expired job was run instead of settled at dequeue")
	return nil, ctx.Err()
}

func (w *probeWork) class() Class { return ClassInteractive }

func (w *probeWork) degraded(reason string) (RunResult, bool) {
	w.degrades.Add(1)
	return RunResult{}, true
}

// Every kind of waiter wakes and returns whichever way a job ends, while its
// progress, its ending and a cancellation race each other; and a finished
// record keeps neither its execution state nor a notify channel. The last
// scenario is a queued job whose deadline has expired, dequeued by a real
// executor while a Cancel tears the job down: the executor must answer from
// the work it took at dequeue, never from the job's cleared pointer.
func TestJobWakeupsAndTeardownRace(t *testing.T) {
	const perScenario = 48
	svc, _ := newTestServer(t, Config{Workers: 2, QueueCap: 4 * perScenario})
	var degrades atomic.Int64
	w := &probeWork{t: t, degrades: &degrades}

	var jobs []*Job
	var waiters sync.WaitGroup
	ctx := context.Background()
	watch := func(j *Job) {
		waiters.Add(3)
		go func() { // WaitChange, as a poller of EventsSince would use it
			defer waiters.Done()
			n := 0
			for {
				evs, terminal := j.EventsSince(n)
				n += len(evs)
				if terminal {
					return
				}
				j.WaitChange(ctx, n)
			}
		}()
		go func() {
			defer waiters.Done()
			j.WaitTerminal(ctx)
			if !j.State().terminal() {
				t.Errorf("job %s: WaitTerminal returned in state %s", j.ID, j.State())
			}
		}()
		go func() { // GET /v1/jobs/{id}/events
			defer waiters.Done()
			rec := httptest.NewRecorder()
			svc.streamEvents(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/events", nil), j)
			lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
			var last Event
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Type != "state" || !last.State.terminal() {
				t.Errorf("job %s: /events ended with %q, want the terminal state", j.ID, lines[len(lines)-1])
			}
		}()
	}
	add := func(scenario string, i int) *Job {
		j := svc.store.Add("run", fmt.Sprintf("%s-%d", scenario, i), nil)
		jobs = append(jobs, j)
		return j
	}
	var race []func()
	points := func(j *Job) {
		for g := 0; g < 3; g++ {
			race = append(race, func() {
				for p := 0; p < 4; p++ {
					j.pointDone(experiments.PointDone{Index: p, Total: 12, Model: "quarc", Rate: 0.01}, false)
				}
			})
		}
	}
	for i := 0; i < perScenario; i++ {
		// A running job: points from several workers, a Cancel that can
		// only cancel its context, and the executor's finish.
		run := add("run", i)
		_, cancel := context.WithCancel(ctx)
		run.arm(w, 0)
		run.dequeue(cancel)
		run.setState(StateRunning, "")
		points(run)
		race = append(race, func() { run.Cancel() }, func() { run.finish([]byte(`{}`), false, false) })

		// A queued job whose Cancel races its point events and a rejection.
		queued := add("queued", i)
		queued.arm(w, 0)
		points(queued)
		race = append(race, func() { queued.Cancel() }, func() { queued.reject("job queue full") })

		// A follower settled from its primary's result while it is cancelled.
		follower := add("follower", i)
		race = append(race, func() { follower.finish([]byte(`{}`), true, false) }, func() { follower.Cancel() })

		// Deadline versus cancel through the real scheduler and executor: half
		// the Cancels go at once, half the moment an executor has taken the
		// job (its cancel hook is set), while it settles the expired deadline.
		expired := add("expired", i)
		taken := i%2 == 1
		race = append(race, func() { svc.admit(expired, w, time.Nanosecond) }, func() {
			for taken {
				expired.mu.Lock()
				taken = !expired.state.terminal() && (expired.x == nil || expired.x.cancel == nil)
				expired.mu.Unlock()
				runtime.Gosched()
			}
			expired.Cancel()
		})
	}
	// Park every waiter before anything moves: each kind creates the job's
	// notify channel when it blocks.
	for _, j := range jobs {
		watch(j)
	}
	parked := time.Now().Add(10 * time.Second)
	for _, j := range jobs {
		for {
			j.mu.Lock()
			ok := j.changed != nil
			j.mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(parked) {
				t.Fatalf("job %s: no waiter parked", j.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var mutators sync.WaitGroup
	for _, f := range race {
		mutators.Add(1)
		go func(f func()) { defer mutators.Done(); f() }(f)
	}
	mutators.Wait()

	returned := make(chan struct{})
	go func() { waiters.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(20 * time.Second):
		t.Fatal("waiters still blocked 20 s after every job ended")
	}
	var live int
	for _, j := range jobs {
		// The expired jobs end on an executor; wait for those to settle.
		j.WaitTerminal(ctx)
		j.mu.Lock()
		if j.x != nil || j.changed != nil {
			t.Errorf("finished job %s (%s) kept its execution state (%v) or a notify channel (%v)",
				j.ID, j.state, j.x != nil, j.changed != nil)
		}
		j.mu.Unlock()
		if !j.State().terminal() {
			live++
		}
	}
	m := counters(t, svc)
	if ended := m["quarcd_jobs_done_total"] + m["quarcd_jobs_failed_total"] + m["quarcd_jobs_cancelled_total"]; live != 0 || ended != float64(len(jobs)) {
		t.Fatalf("%d jobs live, %v counted as ended, want 0 and %d", live, ended, len(jobs))
	}
	degraded := int64(m["quarcd_degraded_answers_total"])
	if degraded > degrades.Load() {
		t.Fatalf("%d degraded answers counted, only %d stand-ins built", degraded, degrades.Load())
	}
	t.Logf("expired jobs: %d of %d answered degraded, the rest cancelled first (%d after their executor took the work)",
		degraded, perScenario, degrades.Load()-degraded)
}
