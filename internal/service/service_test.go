package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"quarc/internal/experiments"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// tinyPanel is a panel small enough for unit tests: 8 points of an 8-node
// network, a few hundred cycles each.
func tinyPanel() PanelRequest {
	return PanelRequest{
		Figure: "fig9", Name: "test", N: 8, MsgLen: 4, Beta: 0.05,
		Rates: []float64{0.002, 0.004},
		Opts:  SweepOpts{Warmup: 100, Measure: 400, Drain: 4000, Seed: 7, Replicates: 2},
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func submitWait(t *testing.T, ts *httptest.Server, path string, body any) JobJSON {
	t.Helper()
	resp, data := postJSON(t, ts.URL+path+"?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", path, resp.Status, data)
	}
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("decode job: %v\n%s", err, data)
	}
	return job
}

// A panel submitted through the API must return results bit-identical to a
// direct sweep-engine call with the same parameters — and the serial
// reference path at that.
func TestPanelEndpointMatchesDirectSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := tinyPanel()
	job := submitWait(t, ts, "/v1/panels", req)
	if job.State != StateDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}
	if job.Cached {
		t.Fatal("first request reported cached")
	}

	spec, opts, err := req.SpecOpts()
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1 // the sequential sweep: points in order on one goroutine
	direct, err := experiments.RunPanel(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EncodePanel(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(job.Result, want) {
		t.Fatalf("API result differs from a direct one-worker RunPanel:\napi:    %s\ndirect: %s",
			job.Result, want)
	}
}

// The second identical request must be served from cache: byte-identical
// result, cached flag set, and zero new points simulated.
func TestPanelCacheHitSimulatesNothing(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	first := submitWait(t, ts, "/v1/panels", tinyPanel())
	if first.State != StateDone || first.Cached {
		t.Fatalf("first request: state=%s cached=%v", first.State, first.Cached)
	}
	before := counters(t, svc)
	if before["quarcd_points_simulated_total"] == 0 || before["quarcd_cache_misses_total"] == 0 {
		t.Fatalf("first request recorded no work: %v", before)
	}

	second := submitWait(t, ts, "/v1/panels", tinyPanel())
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second request: state=%s cached=%v", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result not byte-identical to the computed one")
	}
	after := counters(t, svc)
	if after["quarcd_points_simulated_total"] != before["quarcd_points_simulated_total"] {
		t.Fatalf("cache hit simulated %v new points",
			after["quarcd_points_simulated_total"]-before["quarcd_points_simulated_total"])
	}
	if after["quarcd_cache_hits_total"] != before["quarcd_cache_hits_total"]+1 {
		t.Fatalf("cache hits %v -> %v, want +1", before["quarcd_cache_hits_total"], after["quarcd_cache_hits_total"])
	}
}

// A duplicate that was queued behind its twin must be answered from cache at
// dequeue time instead of re-simulating.
func TestQueuedDuplicateServedFromCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	req := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 300, Drain: 3000, Seed: 8}
	_, d1 := postJSON(t, ts.URL+"/v1/runs", req)
	_, d2 := postJSON(t, ts.URL+"/v1/runs", req)
	var a, b JobJSON
	if err := json.Unmarshal(d1, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(d2, &b); err != nil {
		t.Fatal(err)
	}
	fa := waitState(t, ts, a.ID, StateDone, 10*time.Second)
	fb := waitState(t, ts, b.ID, StateDone, 10*time.Second)
	if !fb.Cached {
		t.Fatal("queued duplicate was re-simulated instead of served from cache")
	}
	if !bytes.Equal(fa.Result, fb.Result) {
		t.Fatal("duplicate results differ")
	}
	if n := counters(t, svc)["quarcd_points_simulated_total"]; n != 1 {
		t.Fatalf("simulated %v points for two identical jobs, want 1", n)
	}
}

// slowRun is a single-point run long enough (hundreds of milliseconds) that
// a test can act while it is still running. The network is saturated so the
// active set is the whole fabric: activity-driven stepping cannot shortcut
// it, keeping the duration stable across scheduler improvements.
func slowRun() RunRequest {
	return RunRequest{N: 16, MsgLen: 16, Rate: 0.2, Warmup: 100,
		Measure: 120000, Drain: 4000, Seed: 9}
}

// An identical uncached submission arriving while its twin is still running
// must coalesce onto it: one simulation, two done jobs, byte-identical
// results, and zero points simulated by the second job.
func TestInFlightDuplicateCoalesces(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	req := slowRun()
	_, d1 := postJSON(t, ts.URL+"/v1/runs", req)
	var a JobJSON
	if err := json.Unmarshal(d1, &a); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, a.ID, StateRunning, 10*time.Second)

	// Workers=2: a second executor is idle, so only coalescing (not queue
	// backpressure) can prevent a duplicate simulation.
	_, d2 := postJSON(t, ts.URL+"/v1/runs", req)
	var b JobJSON
	if err := json.Unmarshal(d2, &b); err != nil {
		t.Fatal(err)
	}
	// Generous deadline: the saturated slowRun fixture takes a few hundred
	// milliseconds natively but many times that under the race detector.
	fa := waitState(t, ts, a.ID, StateDone, 90*time.Second)
	fb := waitState(t, ts, b.ID, StateDone, 90*time.Second)
	if !fb.Cached {
		t.Fatal("coalesced duplicate not marked cached")
	}
	if !bytes.Equal(fa.Result, fb.Result) {
		t.Fatal("coalesced results differ")
	}
	m := counters(t, svc)
	if m["quarcd_jobs_coalesced_total"] != 1 {
		t.Fatalf("jobs coalesced = %v, want 1", m["quarcd_jobs_coalesced_total"])
	}
	if m["quarcd_points_simulated_total"] != 1 {
		t.Fatalf("two identical in-flight jobs simulated %v points, want 1", m["quarcd_points_simulated_total"])
	}
}

// Cancelling the primary must not cancel a coalesced follower: the follower
// is promoted and simulates the request itself.
func TestCoalescedFollowerSurvivesPrimaryCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := slowRun()
	_, d1 := postJSON(t, ts.URL+"/v1/runs", req)
	var a JobJSON
	if err := json.Unmarshal(d1, &a); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, a.ID, StateRunning, 10*time.Second)
	_, d2 := postJSON(t, ts.URL+"/v1/runs", req)
	var b JobJSON
	if err := json.Unmarshal(d2, &b); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs/"+a.ID+"/cancel", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	waitState(t, ts, a.ID, StateCancelled, 10*time.Second)
	fb := waitState(t, ts, b.ID, StateDone, 60*time.Second)
	if fb.Cached {
		t.Fatal("promoted follower claims a cached result; it should have simulated")
	}
	if len(fb.Result) == 0 {
		t.Fatal("promoted follower produced no result")
	}
}

// The /metrics endpoint must expose the hit counter the acceptance criterion
// keys on.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	submitWait(t, ts, "/v1/panels", tinyPanel())
	submitWait(t, ts, "/v1/panels", tinyPanel())
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"quarcd_cache_hits_total 1",
		"quarcd_cache_misses_total 1",
		// Both jobs count done (one computed, one from cache): accepted ==
		// done + failed + cancelled.
		"quarcd_jobs_accepted_total 2",
		"quarcd_jobs_done_total 2",
		"quarcd_cached_responses_total 1",
		"quarcd_queue_depth 0",
		"quarcd_queue_depth_interactive 0",
		"quarcd_queue_depth_batch 0",
		"quarcd_cache_bytes ",
		"quarcd_store_bytes 0",
		"quarcd_store_evictions_total 0",
		"quarcd_jobs_recovered_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State, budget time.Duration) JobJSON {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job JobJSON
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == want {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, job.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Cancelling a running job must stop it promptly and free its executor for
// the next job.
func TestCancellationFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A job that would simulate for hours on the single executor.
	long := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 3}
	resp, data := postJSON(t, ts.URL+"/v1/runs", long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, job.ID, StateRunning, 5*time.Second)

	cresp, cdata := postJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s: %s", cresp.Status, cdata)
	}
	waitState(t, ts, job.ID, StateCancelled, 5*time.Second)

	// The executor must now be free: a small job completes.
	quick := submitWait(t, ts, "/v1/runs", RunRequest{
		N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 300, Drain: 3000, Seed: 4,
	})
	if quick.State != StateDone {
		t.Fatalf("post-cancel job finished %s: %s", quick.State, quick.Error)
	}
}

// Cancelling a queued job must prevent it from ever running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	long := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 3}
	_, d1 := postJSON(t, ts.URL+"/v1/runs", long)
	var running JobJSON
	if err := json.Unmarshal(d1, &running); err != nil {
		t.Fatal(err)
	}
	long.Seed = 5 // distinct key so it cannot be answered from cache
	_, d2 := postJSON(t, ts.URL+"/v1/runs", long)
	var queued JobJSON
	if err := json.Unmarshal(d2, &queued); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/jobs/"+queued.ID+"/cancel", nil)
	waitState(t, ts, queued.ID, StateCancelled, 5*time.Second)
	postJSON(t, ts.URL+"/v1/jobs/"+running.ID+"/cancel", nil)
	waitState(t, ts, running.ID, StateCancelled, 5*time.Second)
}

// The NDJSON event stream must replay the full lifecycle: queued, running,
// one point event per design point, done.
func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := submitWait(t, ts, "/v1/panels", tinyPanel())
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
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

	req := tinyPanel()
	spec, opts, _ := req.SpecOpts()
	wantPoints := experiments.PanelPointCount(spec, opts)
	var points int
	for _, e := range events {
		if e.Type == "point" {
			points++
			if e.Done < 1 || e.Done > wantPoints || e.Total != wantPoints {
				t.Fatalf("bad point event %+v", e)
			}
		}
	}
	if points != wantPoints {
		t.Fatalf("%d point events, want %d", points, wantPoints)
	}
	if events[0].Type != "state" || events[0].State != StateQueued {
		t.Fatalf("first event %+v, want queued", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("last event %+v, want done", last)
	}
}

// Run jobs are cached and deterministic end to end too.
func TestRunEndpointDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := RunRequest{
		N: 8, MsgLen: 4, Beta: 0.05, Rate: 0.004,
		Warmup: 100, Measure: 400, Drain: 4000, Seed: 42, Replicates: 2,
	}
	first := submitWait(t, ts, "/v1/runs", req)
	if first.State != StateDone {
		t.Fatalf("run finished %s: %s", first.State, first.Error)
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	agg, reps, err := experiments.RunReplicated(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := RunResult{Result: EncodeResult(agg)}
	for _, r := range reps {
		out.Replicates = append(out.Replicates, EncodeResult(r))
	}
	want, _ := json.Marshal(out)
	if !bytes.Equal(first.Result, want) {
		t.Fatalf("API run differs from direct RunReplicated:\napi:    %s\ndirect: %s",
			first.Result, want)
	}
	// Worker count must not leak into the payload: replicated on more workers.
	req.Workers = 4
	second := submitWait(t, ts, "/v1/runs", req)
	if !second.Cached || !bytes.Equal(first.Result, second.Result) {
		t.Fatal("worker count changed the cache identity or payload")
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		path string
		body string
	}{
		{"/v1/runs", `{"n":0,"rate":0.01}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"topo":"nope"}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"pattern":"nope"}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"measure":9999999999}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"bogus_field":1}`},
		// Individually legal knobs whose product exceeds the job-work bound.
		{"/v1/runs", `{"n":16,"rate":0.01,"measure":400000000,"replicates":100}`},
		// Model-specific size validation happens at submission time.
		{"/v1/runs", `{"n":12,"rate":0.01,"topo":"mesh"}`},
		{"/v1/runs", `{"n":10,"rate":0.01,"topo":"ring"}`},
		// Bursty knobs: both-or-neither, and an ON-state rate above 1
		// msg/node/cycle is infeasible.
		{"/v1/runs", `{"n":16,"rate":0.01,"burst_mean_on":40}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"burst_mean_on":-40,"burst_mean_off":-120}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"pattern":"hotspot","hotspot_bias":1.5}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"burst_mean_on":40,"burst_mean_off":120,"pattern":"hotspot"}`},
		{"/v1/runs", `{"n":16,"rate":0.9,"burst_mean_on":40,"burst_mean_off":120}`},
		{"/v1/panels", `{"n":0}`},
		{"/v1/panels", fmt.Sprintf(`{"n":16,"opts":{"replicates":%d}}`, MaxReplicates+1)},
		{"/v1/panels", `{"n":16,"opts":{"measure":400000000,"replicates":200,"points":256}}`},
		{"/v1/panels", `{"n":16,"pattern":"nope"}`},
		{"/v1/panels", `{"n":16,"hotspot_bias":1.5}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
}

func TestJobListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	submitWait(t, ts, "/v1/runs", RunRequest{
		N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 300, Drain: 3000, Seed: 1,
	})
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != StateDone {
		t.Fatalf("job listing %+v", jobs)
	}
	if len(jobs[0].Result) != 0 {
		t.Fatal("listing should omit result payloads")
	}
}

// GET /v1/models must enumerate the registry, and a model that exists only
// in the registry (no Topology enum member, no service code naming it) must
// be servable end to end.
func TestModelsEndpointAndRegistryOnlyModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []ModelJSON
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ModelJSON{}
	for _, m := range models {
		byName[m.Name] = m
	}
	for _, want := range []string{"quarc", "spidergon", "quarc-chainbcast",
		"quarc-1queue", "mesh", "torus", "ring"} {
		m, ok := byName[want]
		if !ok {
			t.Errorf("/v1/models missing %q", want)
			continue
		}
		if m.Description == "" || m.ExampleN <= 0 {
			t.Errorf("model %q listed without metadata: %+v", want, m)
		}
	}

	job := submitWait(t, ts, "/v1/runs", RunRequest{
		Topo: "ring", N: 8, MsgLen: 4, Rate: 0.002,
		Warmup: 100, Measure: 400, Drain: 4000, Seed: 3,
	})
	if job.State != StateDone {
		t.Fatalf("ring job finished %s: %s", job.State, job.Error)
	}
	var out RunResult
	if err := json.Unmarshal(job.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Topo != "ring" {
		t.Fatalf("result echoes topo %q, want ring", out.Result.Topo)
	}
	if out.Result.UnicastCount == 0 {
		t.Fatal("ring run measured no unicasts")
	}
}

// Bursty knobs travel the wire, are echoed in results, and key the cache
// separately from the smooth run.
func TestBurstyRunOverWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	smooth := submitWait(t, ts, "/v1/runs", RunRequest{
		N: 16, MsgLen: 4, Rate: 0.004, Warmup: 100, Measure: 1500, Drain: 10000, Seed: 3,
	})
	burst := submitWait(t, ts, "/v1/runs", RunRequest{
		N: 16, MsgLen: 4, Rate: 0.004, Warmup: 100, Measure: 1500, Drain: 10000, Seed: 3,
		BurstMeanOn: 40, BurstMeanOff: 120,
	})
	if smooth.State != StateDone || burst.State != StateDone {
		t.Fatalf("states: smooth=%s burst=%s (%s %s)", smooth.State, burst.State, smooth.Error, burst.Error)
	}
	if burst.Cached {
		t.Fatal("bursty run aliased the smooth run's cache entry")
	}
	var out RunResult
	if err := json.Unmarshal(burst.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.BurstMeanOn != 40 || out.Result.BurstMeanOff != 120 {
		t.Fatalf("burst knobs not echoed: %+v", out.Result)
	}
	if bytes.Equal(smooth.Result, burst.Result) {
		t.Fatal("bursty result identical to smooth result")
	}
}

// Oversized collectives can never complete (the tracker's delivered-node
// mask is 64 bits), so the registry size check must reject them at
// submission time for every model.
func TestOversizedMeshRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{Topo: "mesh", N: 8100, Beta: 0.1, Rate: 0.005})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("n=8100 mesh accepted: %s: %s", resp.Status, body)
	}
}

// collectEvents replays a finished job's NDJSON stream.
func collectEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
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

// Regression: point progress events of a registry-only model must carry its
// canonical name, not the zero-value enum's "quarc" (PointDone used to hold
// the Topology enum, which is TopoQuarc whenever Config.Model selects the
// model).
func TestRunEventsCarryRegistryModelName(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, replicates := range []int{1, 2} { // both RunReplicatedContext paths
		job := submitWait(t, ts, "/v1/runs", RunRequest{
			Topo: "ring", N: 8, MsgLen: 4, Rate: 0.002,
			Warmup: 100, Measure: 300, Drain: 3000, Seed: 21, Replicates: replicates,
		})
		if job.State != StateDone {
			t.Fatalf("replicates=%d: job finished %s: %s", replicates, job.State, job.Error)
		}
		points := 0
		for _, e := range collectEvents(t, ts, job.ID) {
			if e.Type != "point" {
				continue
			}
			points++
			if e.Topo != "ring" {
				t.Fatalf("replicates=%d: point event labels topo %q, want ring", replicates, e.Topo)
			}
		}
		if points != replicates {
			t.Fatalf("replicates=%d: %d point events", replicates, points)
		}
	}
}

// Regression: a ?wait=1 submission whose request context expires mid-wait
// must answer 202 with the job's live state, never 200 with a non-terminal
// snapshot a client could mistake for a completed job. The handler is driven
// directly (a real client would abort the round trip along with its
// context), which is exactly the view a reverse proxy with a read timeout
// or a cancelled downstream handler gets.
func TestWaitExpiryAnswersAccepted(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})
	req := slowRun()
	req.Measure = 400_000_000 // cannot finish inside the wait, however fast the simulator
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)).WithContext(ctx)
	hreq.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, hreq) // blocks until the wait context expires
	if rec.Code != http.StatusAccepted {
		t.Fatalf("expired wait answered %d: %s", rec.Code, rec.Body.String())
	}
	var job JobJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.State.terminal() {
		t.Fatalf("expired wait reports terminal state %s", job.State)
	}
	if len(job.Result) != 0 {
		t.Fatal("non-terminal snapshot carries a result payload")
	}
}

// A three-model panel with multicast traffic runs end to end through the
// daemon: models echoed in curve order, one curve per model, multicast knobs
// echoed on the panel and its points, and the legacy quarc/spidergon arrays
// still present for old consumers.
func TestPanelNWayMulticastOverWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := PanelRequest{
		Figure: "nway", Name: "three models", N: 8, MsgLen: 4, Beta: 0.05,
		Models:    []string{"quarc", "spidergon", "ring"},
		McastFrac: 0.2, McastSize: 3,
		Rates: []float64{0.008, 0.015},
		Opts:  SweepOpts{Warmup: 100, Measure: 600, Drain: 8000, Seed: 7, Replicates: 2},
	}
	job := submitWait(t, ts, "/v1/panels", req)
	if job.State != StateDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}
	var out PanelResultJSON
	if err := json.Unmarshal(job.Result, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Models, req.Models) {
		t.Fatalf("models echoed as %v, want %v", out.Models, req.Models)
	}
	if out.McastFrac != req.McastFrac || out.McastSize != req.McastSize {
		t.Fatalf("multicast knobs not echoed: %+v", out)
	}
	if len(out.Curves) != 3 {
		t.Fatalf("%d curves, want 3", len(out.Curves))
	}
	for _, m := range req.Models {
		curve := out.Curves[m]
		if len(curve) != len(req.Rates) {
			t.Fatalf("%s: curve has %d points, want %d", m, len(curve), len(req.Rates))
		}
		for _, p := range curve {
			if p.Topo != m {
				t.Fatalf("curve %s holds a %s point", m, p.Topo)
			}
			if p.McastFrac != req.McastFrac || p.McastSize != req.McastSize {
				t.Fatalf("%s point lost the multicast knobs: %+v", m, p)
			}
			if p.McastCount == 0 {
				t.Fatalf("%s point completed no multicasts", m)
			}
			if p.UnicastCI == 0 {
				t.Fatalf("%s point has no CI whisker under replication: %+v", m, p)
			}
		}
	}
	// Back-compat arrays mirror the curves for the legacy pair.
	if !reflect.DeepEqual(out.Quarc, out.Curves["quarc"]) ||
		!reflect.DeepEqual(out.Spidergon, out.Curves["spidergon"]) {
		t.Fatal("legacy quarc/spidergon arrays diverge from the curves map")
	}
	// Point progress events must name every model in the set.
	seen := map[string]bool{}
	for _, e := range collectEvents(t, ts, job.ID) {
		if e.Type == "point" {
			seen[e.Topo] = true
		}
	}
	for _, m := range req.Models {
		if !seen[m] {
			t.Errorf("no point event for model %q", m)
		}
	}
}

// Multicast and model-set validation at the API boundary.
func TestNWayAndMulticastValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		path string
		body string
	}{
		{"/v1/runs", `{"n":16,"rate":0.01,"mcast_frac":1.5,"mcast_size":3}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"mcast_frac":0.2}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"mcast_size":3}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"mcast_frac":0.2,"mcast_size":1}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"mcast_frac":0.2,"mcast_size":16}`},
		{"/v1/panels", `{"n":16,"models":["quarc","nope"]}`},
		{"/v1/panels", `{"n":16,"models":["quarc","quarc"]}`},
		{"/v1/panels", `{"n":12,"models":["mesh"]}`},
		{"/v1/panels", `{"n":16,"mcast_frac":0.2}`},
		{"/v1/panels", `{"n":16,"mcast_frac":0.2,"mcast_size":16}`},
		{"/v1/panels", `{"n":16,"mcast_size":4}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}
