package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"quarc/internal/analytic"
	"quarc/internal/faultinject"
	"quarc/internal/model"
	"quarc/internal/network"
)

// panictest is a registry model whose builder always panics — the class of
// third-party bug per-job panic isolation exists for. Registered for this
// test binary only.
func init() {
	model.Register(model.Model{
		Name:        "panictest",
		Description: "test-only model that panics at build time",
		ExampleN:    8,
		Build: func(model.BuildConfig) (*network.Fabric, []model.Node, error) {
			panic("injected model bug")
		},
	})
}

// An analyzable run that outlives its deadline_ms is answered with the
// closed-form analytic estimate flagged degraded — and that estimate is
// never cached, so an identical later request without pressure still gets
// the exact simulation.
func TestDeadlineExpiredRunAnswersDegraded(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	req := slowRun() // uniform pattern: inside the analytic models' domain
	req.Measure = 400_000_000
	req.DeadlineMs = 400
	job := submitWait(t, ts, "/v1/runs", req)
	if job.State != StateDone || !job.Degraded {
		t.Fatalf("state=%s degraded=%v (%s), want done degraded", job.State, job.Degraded, job.Error)
	}
	var rr RunResult
	if err := json.Unmarshal(job.Result, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded || rr.ErrorBand != analytic.ErrorBand {
		t.Fatalf("payload degraded=%v band=%v, want true/%v", rr.Degraded, rr.ErrorBand, analytic.ErrorBand)
	}
	if !strings.Contains(rr.DegradedReason, "deadline") {
		t.Fatalf("degraded reason %q does not name the deadline", rr.DegradedReason)
	}
	if rr.Result.Topo != "quarc" || rr.Result.N != req.N {
		t.Fatalf("degraded payload misdescribes the request: %+v", rr.Result)
	}
	if n := counters(t, svc)["quarcd_degraded_answers_total"]; n != 1 {
		t.Fatalf("degraded answers = %v, want 1", n)
	}

	// The degraded answer must not have poisoned either cache tier: the
	// identical resubmission simulates again (and degrades again), it is not
	// served as a cached exact result.
	again := submitWait(t, ts, "/v1/runs", req)
	if !again.Degraded || again.Cached {
		t.Fatalf("resubmission degraded=%v cached=%v, want degraded uncached", again.Degraded, again.Cached)
	}
	if n := counters(t, svc)["quarcd_degraded_answers_total"]; n != 2 {
		t.Fatalf("degraded answers after resubmit = %v, want 2", n)
	}

	// A negative deadline is a validation error, not a job.
	req.DeadlineMs = -5
	if resp, body := postJSON(t, ts.URL+"/v1/runs", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("deadline_ms=-5: %s: %s", resp.Status, body)
	}
}

// Panels have no analytic fallback: an expired deadline fails the job with
// the reason, it does not invent a degraded answer.
func TestDeadlineExpiredPanelFails(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	p := tinyPanel()
	p.Opts.Measure = 400_000_000
	p.DeadlineMs = 300
	_, data := postJSON(t, ts.URL+"/v1/panels", p)
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, ts, job.ID, StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "deadline") {
		t.Fatalf("panel failure %q does not name the deadline", failed.Error)
	}
}

// A run outside the analytic models' validated domain (here: hotspot
// traffic) also fails on deadline expiry instead of answering with an
// unquantified guess.
func TestDeadlineExpiredUnanalyzableRunFails(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	req := slowRun()
	req.Measure = 400_000_000
	req.Pattern = "hotspot"
	req.HotspotBias = 0.5
	req.DeadlineMs = 300
	_, data := postJSON(t, ts.URL+"/v1/runs", req)
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, ts, job.ID, StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "deadline") {
		t.Fatalf("failure %q does not name the deadline", failed.Error)
	}
	if n := counters(t, svc)["quarcd_degraded_answers_total"]; n != 0 {
		t.Fatalf("unanalyzable run produced %v degraded answers, want 0", n)
	}
}

// The analytic models take no buffer depth and a depth-1 unicast completes up
// to M-1 cycles after their zero-load form, so an expired depth-1 run fails
// with the deadline diagnosis while the same run at depth 2 still degrades.
func TestDeadlineExpiredDepthOneRunFails(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	req := slowRun()
	req.Measure = 400_000_000
	req.Depth = 1
	req.DeadlineMs = 50
	_, data := postJSON(t, ts.URL+"/v1/runs", req)
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, ts, job.ID, StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "deadline") {
		t.Fatalf("depth-1 failure %q does not name the deadline", failed.Error)
	}
	if n := counters(t, svc)["quarcd_degraded_answers_total"]; n != 0 {
		t.Fatalf("depth-1 run produced %v degraded answers, want 0", n)
	}

	req.Depth = 2
	if job := submitWait(t, ts, "/v1/runs", req); job.State != StateDone || !job.Degraded {
		t.Fatalf("depth 2: state=%s degraded=%v (%s), want done degraded", job.State, job.Degraded, job.Error)
	}
}

// Disk-store faults must never surface as 5xx: the breaker opens after the
// configured consecutive failures, the server degrades to memory-cache-only,
// and once the fault episode ends a half-open probe closes the breaker and
// disk persistence resumes.
func TestStoreFaultsOpenBreakerThenRecover(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.New(faultinject.Spec{Seed: 11, ErrRate: 1, MaxOps: 30})
	svc, ts := newTestServer(t, Config{
		Workers: 1, DataDir: dir, BreakerThreshold: 2, Chaos: plan,
	})

	// Every request answers 200 while the disk store fails every operation.
	req := quickRun()
	for seed := uint64(60); seed < 64; seed++ {
		req.Seed = seed
		job := submitWait(t, ts, "/v1/runs", req)
		if job.State != StateDone || job.Degraded {
			t.Fatalf("seed %d under store faults: state=%s degraded=%v (%s)",
				seed, job.State, job.Degraded, job.Error)
		}
	}
	m := counters(t, svc)
	if m["quarcd_store_faults_total"] < 2 {
		t.Fatalf("store faults = %v, want >= 2 (plan injected %d)", m["quarcd_store_faults_total"], plan.Stats().Injected())
	}
	if m["quarcd_store_breaker_opens_total"] == 0 {
		t.Fatal("breaker never opened under a 100% store fault rate")
	}
	// Memory cache still serves the whole answer path.
	req.Seed = 60
	if job := submitWait(t, ts, "/v1/runs", req); !job.Cached {
		t.Fatal("memory cache missed while the breaker guarded the disk")
	}

	// The plan quiets after MaxOps: fresh submissions admit a half-open
	// probe once the backoff elapses, the probe succeeds, and entries start
	// landing on disk again.
	deadline := time.Now().Add(20 * time.Second)
	seed := uint64(100)
	for {
		req.Seed = seed
		seed++
		if job := submitWait(t, ts, "/v1/runs", req); job.State != StateDone {
			t.Fatalf("post-chaos run: %s (%s)", job.State, job.Error)
		}
		m := counters(t, svc)
		if m["quarcd_store_breaker_state"] == float64(BreakerClosed) && m["quarcd_store_entries"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: state=%v entries=%v faults=%v",
				m["quarcd_store_breaker_state"], m["quarcd_store_entries"], m["quarcd_store_faults_total"])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// The watchdog cancels a running job that stops making point progress,
// failing it with a diagnosis instead of leaving it wedged forever.
func TestWatchdogCancelsStalledJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, WatchdogStall: 400 * time.Millisecond})
	req := slowRun()
	req.Measure = 400_000_000 // one point, hours of simulation: no progress events
	_, data := postJSON(t, ts.URL+"/v1/runs", req)
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, ts, job.ID, StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "watchdog") || !strings.Contains(failed.Error, "no point progress") {
		t.Fatalf("failure %q is not a watchdog diagnosis", failed.Error)
	}
	if n := counters(t, svc)["quarcd_watchdog_cancels_total"]; n != 1 {
		t.Fatalf("watchdog cancels = %v, want 1", n)
	}
	// The executor is free again: normal work proceeds.
	if ok := submitWait(t, ts, "/v1/runs", quickRun()); ok.State != StateDone {
		t.Fatalf("post-watchdog run: %s (%s)", ok.State, ok.Error)
	}
}

// A panic inside a job's simulation fails that job with a diagnosis; the
// daemon and every other job keep serving. Covers both the single-replicate
// path and the sweep worker pool.
func TestPanicFailsJobNotDaemon(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	boom := RunRequest{Topo: "panictest", N: 8, MsgLen: 4, Rate: 0.002,
		Warmup: 100, Measure: 300, Drain: 3000, Seed: 1}
	_, data := postJSON(t, ts.URL+"/v1/runs", boom)
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, ts, job.ID, StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "panicked") {
		t.Fatalf("failure %q does not diagnose the panic", failed.Error)
	}

	boom.Seed, boom.Replicates = 2, 3 // sweep worker-pool path
	_, data = postJSON(t, ts.URL+"/v1/runs", boom)
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	failed = waitState(t, ts, job.ID, StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "panicked") {
		t.Fatalf("replicated failure %q does not diagnose the panic", failed.Error)
	}

	// The daemon survived both panics.
	if ok := submitWait(t, ts, "/v1/runs", quickRun()); ok.State != StateDone {
		t.Fatalf("post-panic run: %s (%s)", ok.State, ok.Error)
	}
	if n := counters(t, svc)["quarcd_jobs_failed_total"]; n != 2 {
		t.Fatalf("jobs failed = %v, want 2", n)
	}
}

// A lane depth just above MaxDepth is refused with 400 on every submit
// route, before any fabric is built: the fabric's slots are one allocation,
// and one that size is a fatal out-of-memory error, not a panic the executor
// could recover. The depth at the cap itself passes every conversion.
func TestDepthAboveCapRefused(t *testing.T) {
	bodies := func(depth int) map[string]string {
		return map[string]string{
			"/v1/runs":    fmt.Sprintf(`{"topo":"mesh","n":1024,"rate":0.01,"depth":%d}`, depth),
			"/v1/panels":  fmt.Sprintf(`{"n":16,"rates":[0.01],"opts":{"depth":%d}}`, depth),
			"/v1/explore": fmt.Sprintf(`{"models":["quarc"],"ns":[16],"rates":[0.01],"depths":[4,%d]}`, depth),
		}
	}
	svc, ts := newTestServer(t, Config{Workers: 1})
	for route, body := range bodies(MaxDepth + 1) {
		resp, err := http.Post(ts.URL+route+"?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("exceeds the limit")) {
			t.Errorf("%s %s: %d %s, want 400 naming the limit", route, body, resp.StatusCode, data)
		}
	}
	if m := counters(t, svc); m["quarcd_jobs_accepted_total"] != 0 || m["quarcd_panics_recovered_total"] != 0 {
		t.Fatalf("refused depths left traces: accepted=%v panics=%v", m["quarcd_jobs_accepted_total"], m["quarcd_panics_recovered_total"])
	}

	at := bodies(MaxDepth)
	var run RunRequest
	var panel PanelRequest
	var exp ExploreRequest
	for route, v := range map[string]any{"/v1/runs": &run, "/v1/panels": &panel, "/v1/explore": &exp} {
		if err := json.Unmarshal([]byte(at[route]), v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.Config(); err != nil {
		t.Errorf("run at depth %d refused: %v", MaxDepth, err)
	}
	if _, _, err := panel.SpecOpts(); err != nil {
		t.Errorf("panel at depth %d refused: %v", MaxDepth, err)
	}
	if _, _, _, err := exp.SpecOpts(); err != nil {
		t.Errorf("explore at depth %d refused: %v", MaxDepth, err)
	}
}

// The seeded chaos end-to-end schedule: a daemon serves correctly while a
// deterministic fault plan batters its durability layer, then a clean
// restart over the same data directory serves every previous answer
// byte-identically — whether from the entries that survived on disk or by
// deterministic re-simulation of the ones that did not.
func TestChaosRestartServesByteIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.New(faultinject.Spec{Seed: 0xE2E, ErrRate: 0.25, TornRate: 0.25, MaxOps: 200})
	svc1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir, BreakerThreshold: 3, Chaos: plan})

	req := quickRun()
	results := make(map[uint64][]byte)
	for seed := uint64(90); seed < 94; seed++ {
		req.Seed = seed
		job := submitWait(t, ts1, "/v1/runs", req)
		if job.State != StateDone || job.Degraded || len(job.Result) == 0 {
			t.Fatalf("seed %d under chaos: state=%s degraded=%v (%s)",
				seed, job.State, job.Degraded, job.Error)
		}
		results[seed] = job.Result
	}
	if plan.Stats().Injected() == 0 {
		t.Fatal("chaos plan injected nothing: the restart proves nothing")
	}
	if counters(t, svc1)["quarcd_jobs_failed_total"] != 0 {
		t.Fatal("store faults failed jobs; they must only cost durability")
	}
	ts1.Close()
	svc1.Close()

	// Clean restart: no injection, same directory.
	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	for seed := uint64(90); seed < 94; seed++ {
		req.Seed = seed
		job := submitWait(t, ts2, "/v1/runs", req)
		if job.State != StateDone {
			t.Fatalf("seed %d after restart: %s (%s)", seed, job.State, job.Error)
		}
		if !bytes.Equal(job.Result, results[seed]) {
			t.Fatalf("seed %d: post-restart payload differs\nold: %s\nnew: %s",
				seed, results[seed], job.Result)
		}
	}
}
