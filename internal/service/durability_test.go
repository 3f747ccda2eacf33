package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quarc/internal/analytic"
)

// quickRun is a sub-second single-point run for durability tests.
func quickRun() RunRequest {
	return RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 300, Drain: 3000, Seed: 77}
}

// A daemon restarted over the same data directory must serve the previous
// result byte-identically with zero points re-simulated — answered from the
// disk store through the read-through cache — recover the finished job
// record, and replay its full event stream.
func TestRestartServesByteIdenticalResultFromDisk(t *testing.T) {
	dir := t.TempDir()
	svc1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	first := submitWait(t, ts1, "/v1/runs", quickRun())
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: state=%s cached=%v (%s)", first.State, first.Cached, first.Error)
	}
	if counters(t, svc1)["quarcd_points_simulated_total"] == 0 {
		t.Fatal("first run recorded no simulated points")
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if n := counters(t, svc2)["quarcd_jobs_recovered_total"]; n != 1 {
		t.Fatalf("recovered %v jobs, want 1", n)
	}

	// The finished job record survived the restart, result included.
	rec := waitState(t, ts2, first.ID, StateDone, 5*time.Second)
	if !bytes.Equal(rec.Result, first.Result) {
		t.Fatalf("recovered job result differs:\nold: %s\nnew: %s", first.Result, rec.Result)
	}

	// Its event stream replays the full pre-crash prefix.
	events := collectEvents(t, ts2, first.ID)
	if len(events) == 0 || events[0].Type != "state" || events[0].State != StateQueued {
		t.Fatalf("replayed events start with %+v, want queued", events)
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("replayed events end with %+v, want done", last)
	}
	var points int
	for _, e := range events {
		if e.Type == "point" {
			points++
		}
	}
	if points != 1 {
		t.Fatalf("replayed %d point events, want 1", points)
	}

	// ?from=N resumes mid-stream for reconnecting clients.
	tail := collectEventsFrom(t, ts2, first.ID, 1)
	if len(tail) != len(events)-1 {
		t.Fatalf("from=1 replayed %d events, want %d", len(tail), len(events)-1)
	}
	if len(tail) > 0 && tail[len(tail)-1] != events[len(events)-1] {
		t.Fatal("from=1 tail diverges from the full stream")
	}

	// The same request is answered byte-identically from disk: no simulation.
	second := submitWait(t, ts2, "/v1/runs", quickRun())
	if second.State != StateDone || !second.Cached {
		t.Fatalf("post-restart run: state=%s cached=%v", second.State, second.Cached)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatal("post-restart result not byte-identical")
	}
	m := counters(t, svc2)
	if m["quarcd_points_simulated_total"] != 0 {
		t.Fatalf("restart re-simulated %v points, want 0", m["quarcd_points_simulated_total"])
	}
	if m["quarcd_store_hits_total"] == 0 {
		t.Fatal("disk store recorded no read-through hits")
	}
	if m["quarcd_store_entries"] == 0 || m["quarcd_store_bytes"] == 0 {
		t.Fatalf("disk store empty after restart: %v", m)
	}
}

// collectEventsFrom replays a finished job's NDJSON stream starting at
// event index n (the ?from=N reconnect path).
func collectEventsFrom(t *testing.T, ts *httptest.Server, id string, n int) []Event {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// A job whose journal ends queued or running (the daemon died mid-job) must
// be re-validated from its journaled request and re-enqueued at boot,
// running to completion as if resubmitted.
func TestCrashedJobReEnqueuedAtBoot(t *testing.T) {
	dir := t.TempDir()
	req := quickRun()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(journalHeader{
		Journal: journalMagic, ID: "j000042", Kind: "run", Key: RunKey(cfg, 1),
		Created: time.Now().UTC().Format(time.RFC3339Nano), Request: raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The journal a SIGKILL mid-run leaves behind: header, queued, running —
	// and no terminal line.
	journalDir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf("%s\n%s\n%s\n", hdr,
		`{"type":"state","state":"queued"}`, `{"type":"state","state":"running"}`)
	if err := os.WriteFile(filepath.Join(journalDir, "j000042.ndjson"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	done := waitState(t, ts, "j000042", StateDone, 15*time.Second)
	if len(done.Result) == 0 {
		t.Fatal("re-enqueued job finished without a result")
	}
	m := counters(t, svc)
	if m["quarcd_jobs_recovered_total"] != 1 {
		t.Fatalf("recovered %v jobs, want 1", m["quarcd_jobs_recovered_total"])
	}
	if m["quarcd_points_simulated_total"] == 0 {
		t.Fatal("re-enqueued job simulated nothing")
	}
	// New submissions never collide with the recovered ID.
	fresh := submitWait(t, ts, "/v1/runs", RunRequest{
		N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 300, Drain: 3000, Seed: 78,
	})
	if fresh.ID == "j000042" {
		t.Fatal("fresh job reused the recovered job's ID")
	}
	// The journal now carries the whole story: the pre-crash prefix plus the
	// re-run's events.
	events := collectEvents(t, ts, "j000042")
	var queued int
	for _, e := range events {
		if e.Type == "state" && e.State == StateQueued {
			queued++
		}
	}
	if queued != 2 {
		t.Fatalf("%d queued events after recovery, want 2 (pre-crash + re-enqueue)", queued)
	}
}

// An interactive run submitted behind a queued batch panel must overtake
// it on the single executor: priority scheduling bounds interactive latency
// under batch load, and the batch job still completes (no starvation).
func TestInteractiveOvertakesQueuedBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A saturated panel occupies the executor for hundreds of milliseconds.
	slowPanel := func(name string) PanelRequest {
		return PanelRequest{
			Figure: "prio", Name: name, N: 16, MsgLen: 16, Beta: 0.05,
			Rates: []float64{0.2},
			Opts:  SweepOpts{Warmup: 100, Measure: 40000, Drain: 4000, Seed: 7},
		}
	}
	_, d1 := postJSON(t, ts.URL+"/v1/panels", slowPanel("p1"))
	var p1 JobJSON
	if err := json.Unmarshal(d1, &p1); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, p1.ID, StateRunning, 10*time.Second)

	// While p1 runs: queue a second batch panel, then an interactive run.
	_, d2 := postJSON(t, ts.URL+"/v1/panels", slowPanel("p2"))
	var p2 JobJSON
	if err := json.Unmarshal(d2, &p2); err != nil {
		t.Fatal(err)
	}
	_, d3 := postJSON(t, ts.URL+"/v1/runs", quickRun())
	var run JobJSON
	if err := json.Unmarshal(d3, &run); err != nil {
		t.Fatal(err)
	}

	runDone := waitState(t, ts, run.ID, StateDone, 60*time.Second)
	p2Done := waitState(t, ts, p2.ID, StateDone, 120*time.Second) // no starvation
	runStart, err := time.Parse(time.RFC3339Nano, runDone.Started)
	if err != nil {
		t.Fatal(err)
	}
	p2Start, err := time.Parse(time.RFC3339Nano, p2Done.Started)
	if err != nil {
		t.Fatal(err)
	}
	if !runStart.Before(p2Start) {
		t.Fatalf("interactive run started %s, after batch panel %s: FIFO behaviour, not priority",
			runDone.Started, p2Done.Started)
	}
}

// Queue backpressure answers 503 with a Retry-After hint and counts the
// rejection.
func TestQueueFullShedsRunsDegradedAndPanels503(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	long := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 50}
	_, d1 := postJSON(t, ts.URL+"/v1/runs", long)
	var running JobJSON
	if err := json.Unmarshal(d1, &running); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, running.ID, StateRunning, 10*time.Second)

	long.Seed = 51 // distinct key: occupies the single queue slot
	if resp, body := postJSON(t, ts.URL+"/v1/runs", long); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submission: %s: %s", resp.Status, body)
	}

	// An analyzable run turned away by the full queue is shed with an
	// instant degraded analytic answer, not a 503.
	long.Seed = 52 // distinct key: over capacity
	resp, body := postJSON(t, ts.URL+"/v1/runs", long)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over-capacity run: %s: %s", resp.Status, body)
	}
	var shed JobJSON
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatal(err)
	}
	if shed.State != StateDone || !shed.Degraded {
		t.Fatalf("shed run state=%s degraded=%v, want done degraded", shed.State, shed.Degraded)
	}
	var rr RunResult
	if err := json.Unmarshal(shed.Result, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded || rr.ErrorBand != analytic.ErrorBand || rr.DegradedReason == "" {
		t.Fatalf("shed payload degraded=%v band=%v reason=%q", rr.Degraded, rr.ErrorBand, rr.DegradedReason)
	}
	if n := counters(t, svc)["quarcd_degraded_answers_total"]; n != 1 {
		t.Fatalf("degraded answers = %v, want 1", n)
	}

	// A panel has no analytic fallback: the full queue still answers 503
	// with Retry-After, and the rejection is counted.
	resp, body = postJSON(t, ts.URL+"/v1/panels", tinyPanel())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity panel: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("503 carries no Retry-After header")
	}
	if !bytes.Contains(body, []byte("queue full")) {
		t.Fatalf("503 body %s does not name the cause", body)
	}
	if n := counters(t, svc)["quarcd_jobs_rejected_total"]; n != 1 {
		t.Fatalf("jobs rejected = %v, want 1", n)
	}
}

// submitNoWait posts req to the run route and returns the accepted job's id.
func submitNoWait(t *testing.T, ts *httptest.Server, req RunRequest) string {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	return job.ID
}

// drainBusy starts run on the one executor of a durable server, queues
// queued behind it, and drains the server under ctx. It returns the two job
// ids, the data directory and the drain's error.
func drainBusy(t *testing.T, ctx context.Context, run, queued RunRequest) ([2]string, string, error) {
	t.Helper()
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	var ids [2]string
	ids[0] = submitNoWait(t, ts, run)
	waitState(t, ts, ids[0], StateRunning, 10*time.Second)
	ids[1] = submitNoWait(t, ts, queued)
	waitState(t, ts, ids[1], StateQueued, time.Second)
	return ids, dir, svc.Drain(ctx)
}

// restartAfterDrain boots a server over a drained data directory and checks
// that both jobs' journals were closed on their terminal line: each record
// comes back in state want, and nothing is re-enqueued or re-simulated.
func restartAfterDrain(t *testing.T, dir string, ids [2]string, want State) []JobJSON {
	t.Helper()
	svc, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	var jobs []JobJSON
	for _, id := range ids {
		jobs = append(jobs, waitState(t, ts, id, want, time.Second))
		events := collectEvents(t, ts, id)
		if last := events[len(events)-1]; last.Type != "state" || last.State != want {
			t.Fatalf("job %s's journal ends with %+v, want state %s", id, last, want)
		}
	}
	m := counters(t, svc)
	if m["quarcd_jobs_recovered_total"] != 2 || m["quarcd_points_simulated_total"] != 0 {
		t.Fatalf("restart recovered %v jobs and simulated %v points, want 2 and 0",
			m["quarcd_jobs_recovered_total"], m["quarcd_points_simulated_total"])
	}
	return jobs
}

// Drain is quarcd's SIGTERM path. Within its budget the running and the
// queued job both finish, and their journals close on the done line.
func TestDrainFinishesQueuedAndRunningJobs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ids, dir, err := drainBusy(t, ctx, slowRun(), quickRun())
	if err != nil {
		t.Fatalf("drain within its budget: %v", err)
	}
	for _, j := range restartAfterDrain(t, dir, ids, StateDone) {
		if len(j.Result) == 0 {
			t.Fatalf("job %s finished without a result", j.ID)
		}
	}
}

// Past its budget, Drain cancels the running and the queued job, still
// closes their journals, and returns the context's error.
func TestDrainPastItsBudgetCancelsTheRest(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	long := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 3}
	queued := long
	queued.Seed = 4
	ids, dir, err := drainBusy(t, ctx, long, queued)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with an expired context returned %v, want %v", err, context.DeadlineExceeded)
	}
	restartAfterDrain(t, dir, ids, StateCancelled)
}
