package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"quarc/internal/experiments"
)

// tinyExplore is an exploration small enough for unit tests: a 2-model
// lattice over an 8-node network, two rates, a few hundred cycles per point.
func tinyExplore() ExploreRequest {
	return ExploreRequest{
		Models: []string{"quarc", "spidergon"},
		Ns:     []int{8},
		Rates:  []float64{0.002, 0.004},
		MsgLen: 4,
		Opts:   SweepOpts{Warmup: 100, Measure: 400, Drain: 4000, Seed: 7, Replicates: 2},
	}
}

func decodeExplore(t *testing.T, job JobJSON) ExploreResultJSON {
	t.Helper()
	if job.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", job.State, job.Error)
	}
	var out ExploreResultJSON
	if err := json.Unmarshal(job.Result, &out); err != nil {
		t.Fatalf("decode explore payload: %v\n%s", err, job.Result)
	}
	return out
}

func TestExploreEndpoint(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	job := submitWait(t, ts, "/v1/explore", tinyExplore())
	out := decodeExplore(t, job)

	if out.LatticePoints != 4 || len(out.Points) != 4 {
		t.Fatalf("lattice has %d/%d points, want 4", out.LatticePoints, len(out.Points))
	}
	if len(out.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	onFront := map[int]bool{}
	for _, i := range out.Front {
		if i < 0 || i >= len(out.Points) {
			t.Fatalf("front index %d out of range", i)
		}
		onFront[i] = true
	}
	for i, p := range out.Points {
		if p.OnFront != onFront[i] {
			t.Errorf("point %d on_front=%v but front list says %v", i, p.OnFront, onFront[i])
		}
		if p.OnFront && p.DominatedBy != nil {
			t.Errorf("front point %d carries dominated_by %d", i, *p.DominatedBy)
		}
		if !p.OnFront {
			if p.DominatedBy == nil {
				t.Errorf("dominated point %d has no witness", i)
			} else if !onFront[*p.DominatedBy] {
				t.Errorf("point %d's witness %d is not on the front", i, *p.DominatedBy)
			}
		}
		// Both lattice models have calibrated switch models.
		if !p.CostKnown || p.CostSlices <= 0 {
			t.Errorf("point %d (%s): cost_known=%v slices=%d", i, p.Model, p.CostKnown, p.CostSlices)
		}
		if p.Result.N != 8 || p.Result.Topo != p.Model {
			t.Errorf("point %d embeds result for %s/%d, want %s/8", i, p.Result.Topo, p.Result.N, p.Model)
		}
	}
	if out.Replicates != 2 || out.CostWidth != 32 || out.MsgLen != 4 {
		t.Errorf("normalised echo wrong: %+v", out)
	}
	// The payload must never leak execution provenance.
	if bytes.Contains(job.Result, []byte(`"cached"`)) {
		t.Error("explore payload contains a cached flag; payloads must be pure functions of the request")
	}
	m := counters(t, svc)
	if m["quarcd_explore_points_expanded_total"] != 4 {
		t.Errorf("explore points expanded %v, want 4", m["quarcd_explore_points_expanded_total"])
	}
	if m["quarcd_points_simulated_total"] != 8 { // 4 points x 2 replicates
		t.Errorf("points simulated %v, want 8", m["quarcd_points_simulated_total"])
	}
}

// TestExploreRepeatServedFromCacheWithZeroSimulation is the acceptance
// criterion: an identical re-POST answers from the cache with zero points
// re-simulated, byte-identical to the first payload.
func TestExploreRepeatServedFromCacheWithZeroSimulation(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	first := submitWait(t, ts, "/v1/explore", tinyExplore())
	decodeExplore(t, first)
	before := counters(t, svc)

	second := submitWait(t, ts, "/v1/explore", tinyExplore())
	decodeExplore(t, second)
	if !second.Cached {
		t.Error("identical re-POST not served from cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("cached explore payload differs from the original bytes")
	}
	after := counters(t, svc)
	if after["quarcd_points_simulated_total"] != before["quarcd_points_simulated_total"] {
		t.Errorf("re-POST simulated %v points, want 0", after["quarcd_points_simulated_total"]-before["quarcd_points_simulated_total"])
	}
	if after["quarcd_cached_responses_total"] != before["quarcd_cached_responses_total"]+1 {
		t.Errorf("cached responses went %v -> %v, want +1", before["quarcd_cached_responses_total"], after["quarcd_cached_responses_total"])
	}
}

// pointEvents reads a finished job's NDJSON progress stream and counts its
// point events, and how many of them were answered from the per-point cache.
func pointEvents(t *testing.T, ts *httptest.Server, id string) (points, cached int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Type == "point" {
			points++
			if ev.Cached {
				cached++
			}
		}
	}
	return points, cached
}

// TestExploreOverlapHitsPerPointCache submits a second lattice overlapping
// the first on one rate: the shared points must be answered from the
// per-point cache (counted, and flagged in the progress events) while only
// the new points simulate.
func TestExploreOverlapHitsPerPointCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	submitWait(t, ts, "/v1/explore", tinyExplore())
	before := counters(t, svc)

	overlap := tinyExplore()
	overlap.Rates = []float64{0.004, 0.006} // 0.004 x 2 models already cached
	job := submitWait(t, ts, "/v1/explore", overlap)
	out := decodeExplore(t, job)
	if len(out.Points) != 4 {
		t.Fatalf("overlap lattice has %d points, want 4", len(out.Points))
	}
	after := counters(t, svc)
	if got := after["quarcd_explore_points_cache_hit_total"] - before["quarcd_explore_points_cache_hit_total"]; got != 2 {
		t.Errorf("per-point cache hits %v, want 2", got)
	}
	if got := after["quarcd_points_simulated_total"] - before["quarcd_points_simulated_total"]; got != 4 { // 2 new points x 2 replicates
		t.Errorf("overlap simulated %v replicates, want 4", got)
	}

	// The cached points are flagged in the NDJSON progress stream.
	points, cached := pointEvents(t, ts, job.ID)
	if points != 4 || cached != 2 {
		t.Errorf("event stream has %d point events (%d cached), want 4 and 2", points, cached)
	}
}

// TestExploreWorkerCountChangesNothingObservable posts the benchmark-shaped
// lattice (4 models x 2 sizes x 4 rates x 2 depths = 64 points) and its
// shifted twin to fresh servers at opts.workers 0 (every core, the default),
// 1 and 3. The worker count is execution-only: payload bytes, the points
// simulated, the per-point cache hits and the progress events must all be
// what one worker gives.
func TestExploreWorkerCountChangesNothingObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 80 small points three times")
	}
	lattice := func(workers, shift int) ExploreRequest {
		rates := make([]float64, 4)
		for i := range rates {
			rates[i] = 0.002 * float64(i+1+shift)
		}
		return ExploreRequest{
			Models: []string{"quarc", "spidergon", "ring", "mesh"},
			Ns:     []int{16, 36},
			Rates:  rates,
			Depths: []int{2, 4},
			MsgLen: 8, Beta: 0.05,
			Opts: SweepOpts{Warmup: 50, Measure: 250, Drain: 1500, Seed: 7, Workers: workers},
		}
	}
	var want [2][]byte
	for _, workers := range []int{1, 0, 3} {
		svc, ts := newTestServer(t, Config{Workers: 2})
		for shift := 0; shift < 2; shift++ {
			before := counters(t, svc)
			job := submitWait(t, ts, "/v1/explore", lattice(workers, shift))
			if out := decodeExplore(t, job); out.LatticePoints != 64 {
				t.Fatalf("lattice has %d points, want 64", out.LatticePoints)
			}
			if want[shift] == nil {
				want[shift] = job.Result
			} else if !bytes.Equal(job.Result, want[shift]) {
				t.Errorf("workers %d, shift %d: payload differs from the one-worker payload", workers, shift)
			}
			after := counters(t, svc)
			wantSim, wantHits := 64, 0
			if shift == 1 {
				wantSim, wantHits = 16, 48 // three of four rates are shared
			}
			if got := after["quarcd_points_simulated_total"] - before["quarcd_points_simulated_total"]; got != float64(wantSim) {
				t.Errorf("workers %d, shift %d: %v points simulated, want %d", workers, shift, got, wantSim)
			}
			if got := after["quarcd_explore_points_cache_hit_total"] - before["quarcd_explore_points_cache_hit_total"]; got != float64(wantHits) {
				t.Errorf("workers %d, shift %d: %v per-point cache hits, want %d", workers, shift, got, wantHits)
			}
			if points, cached := pointEvents(t, ts, job.ID); points != 64 || cached != wantHits {
				t.Errorf("workers %d, shift %d: %d point events (%d cached), want 64 (%d)", workers, shift, points, cached, wantHits)
			}
		}
	}
}

// TestExploreSharesCacheWithRuns asserts the per-point keys are the exact
// run keys: after an explore, an identical single-configuration POST
// /v1/runs answers from the cache without simulating.
func TestExploreSharesCacheWithRuns(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	submitWait(t, ts, "/v1/explore", tinyExplore())
	before := counters(t, svc)

	run := RunRequest{Topo: "spidergon", N: 8, MsgLen: 4, Rate: 0.004,
		Warmup: 100, Measure: 400, Drain: 4000, Seed: 7, Replicates: 2}
	job := submitWait(t, ts, "/v1/runs", run)
	if job.State != StateDone {
		t.Fatalf("run state %s: %s", job.State, job.Error)
	}
	if !job.Cached {
		t.Error("run identical to an explored point was not served from cache")
	}
	after := counters(t, svc)
	if after["quarcd_points_simulated_total"] != before["quarcd_points_simulated_total"] {
		t.Error("run re-simulated a point the explore already computed")
	}
	var rr RunResult
	if err := json.Unmarshal(job.Result, &rr); err != nil {
		t.Fatalf("decode run payload: %v", err)
	}
	if rr.Result.Topo != "spidergon" || rr.Result.Rate != 0.004 || len(rr.Replicates) != 2 {
		t.Errorf("cached run payload wrong: %+v", rr.Result)
	}
}

func TestExploreValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body any
		want string
	}{
		{"empty lattice", ExploreRequest{}, "empty lattice"},
		{"unknown model", ExploreRequest{Models: []string{"hypercube"}, Ns: []int{8}, Rates: []float64{0.01}}, "unknown model"},
		{"over the lattice cap", ExploreRequest{
			Models: []string{"quarc", "spidergon"}, Ns: []int{8, 12, 16, 20, 24, 28, 32, 36},
			Rates: make([]float64, 64), Depths: []int{2, 4, 8},
		}, "lattice expands to 3072 points, exceeding the limit 2048"},
		{"all sizes invalid", ExploreRequest{Models: []string{"quarc"}, Ns: []int{7}, Rates: []float64{0.01}}, "0 valid points"},
		{"points opt meaningless", ExploreRequest{Models: []string{"quarc"}, Ns: []int{8}, Rates: []float64{0.01},
			Opts: SweepOpts{Points: 5}}, "does not apply"},
		{"duplicate model", ExploreRequest{Models: []string{"quarc", "quarc"}, Ns: []int{8}, Rates: []float64{0.01}}, "duplicate model"},
		{"bad mcast", ExploreRequest{Models: []string{"quarc"}, Ns: []int{8}, Rates: []float64{0.01},
			Mcast: []McastJSON{{Frac: 0.2, Size: 1}}}, "at least 2"},
		{"unknown field", map[string]any{"models": []string{"quarc"}, "lattice": true}, "unknown field"},
		{"cost width overflows the cost axis", ExploreRequest{Models: []string{"quarc"}, Ns: []int{8}, Rates: []float64{0.01},
			CostWidth: 1 << 62}, "cost_width 4611686018427387904 exceeds the limit 4096"},
		{"cost width at the int limit", ExploreRequest{Models: []string{"quarc"}, Ns: []int{8}, Rates: []float64{0.01},
			CostWidth: math.MaxInt}, "cost_width 9223372036854775807 exceeds the limit 4096"},
		// 2^16 values on each of four axes: the lattice size wrapped to 0, and
		// the handler expanded 2^64 points.
		{"lattice size past the int range", map[string]any{"models": []string{"quarc"},
			"ns": repeat(8, 1<<16), "rates": repeat(0.01, 1<<16), "depths": repeat(4, 1<<16),
			"mcast": repeat(map[string]any{}, 1<<16)},
			"lattice expands to 9223372036854775807 points, exceeding the limit 2048"},
	}
	for _, c := range cases {
		body := c.body
		if req, ok := body.(ExploreRequest); ok && len(req.Rates) == 64 {
			for i := range req.Rates {
				req.Rates[i] = 0.001 * float64(i+1)
			}
			body = req
		}
		resp, data := postJSON(t, ts.URL+"/v1/explore", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400 (%s)", c.name, resp.Status, data)
			continue
		}
		if !strings.Contains(string(data), c.want) {
			t.Errorf("%s: error %s does not mention %q", c.name, data, c.want)
		}
	}
}

// repeat returns n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestExploreCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Big enough that it cannot finish before the cancel lands.
	big := ExploreRequest{
		Models: []string{"quarc", "spidergon"},
		Ns:     []int{32, 64},
		Rates:  []float64{0.002, 0.004, 0.008, 0.016},
		Opts:   SweepOpts{Warmup: 5000, Measure: 100000, Drain: 200000, Seed: 7},
	}
	resp, data := postJSON(t, ts.URL+"/v1/explore", big)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var job JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, b := postJSONGet(t, ts.URL+"/v1/jobs/"+job.ID+"?wait=1")
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: %s", r.Status)
		}
		if err := json.Unmarshal(b, &job); err != nil {
			t.Fatal(err)
		}
		if State(job.State).terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after cancel", job.State)
		}
	}
	if job.State != StateCancelled {
		t.Fatalf("job state %s, want cancelled", job.State)
	}
	if len(job.Result) != 0 {
		t.Error("cancelled explore carries a result payload")
	}
}

// postJSONGet is a GET that returns status and body (the poll loop above).
func postJSONGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestSweepOptsSharedByPanelsAndExplore: both endpoints nest the same
// SweepOpts and run it through one conversion, so every option is
// range-checked identically on either (explore used to accept, then drop,
// opts.step_workers without looking at it) and explore carries the
// step-worker count to its points without moving a cache key.
func TestSweepOptsSharedByPanelsAndExplore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bodies := map[string]string{
		"/v1/panels":  `{"n":16,"rates":[0.01],"opts":%s}`,
		"/v1/explore": `{"models":["quarc"],"ns":[16],"rates":[0.01],"opts":%s}`,
	}
	for _, opts := range []string{
		`{"step_workers":-5}`,
		fmt.Sprintf(`{"step_workers":%d}`, MaxWorkers+1),
		`{"workers":-1}`,
		fmt.Sprintf(`{"replicates":%d}`, MaxReplicates+1),
		`{"warmup":-1}`,
		fmt.Sprintf(`{"measure":%d}`, MaxTotalCycles),
	} {
		for path, body := range bodies {
			resp, data := postJSON(t, ts.URL+path, json.RawMessage(fmt.Sprintf(body, opts)))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s opts %s: status %s, want 400 (%s)", path, opts, resp.Status, data)
			}
		}
	}

	req := ExploreRequest{Models: []string{"quarc", "ring"}, Ns: []int{16}, Rates: []float64{0.01}}
	spec, plainOpts, plain, err := req.SpecOpts()
	if err != nil {
		t.Fatal(err)
	}
	req.Opts.StepWorkers = 3
	_, steppedOpts, stepped, err := req.SpecOpts()
	if err != nil {
		t.Fatal(err)
	}
	if steppedOpts.StepWorkers != 3 {
		t.Fatalf("explore run options dropped step_workers: %+v", steppedOpts)
	}
	if ExploreKey(spec, plainOpts) != ExploreKey(spec, steppedOpts) {
		t.Error("step_workers moved the explore key")
	}
	for i, p := range stepped.Points {
		if p.Cfg.StepWorkers != 3 {
			t.Errorf("point %d does not carry step_workers: %+v", i, p.Cfg)
		}
		if RunKey(p.Cfg, 1) != RunKey(plain.Points[i].Cfg, 1) {
			t.Errorf("point %d: step_workers moved the per-point run key", i)
		}
	}
}

// The paper's ablation and the Quarc's buffer-depth study are explore
// lattices: POSTed as these bodies (the ones README documents), every point
// of the payload embeds exactly the result the study in experiments' table
// measures at DefaultOpts. No panel: a panel derives a seed per point and
// would change the studies' numbers.
func TestExploreServesThePaperStudies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, c := range []struct{ study, model, body string }{
		{"ablation", "", `{"models":["quarc","quarc-chainbcast","quarc-1queue","spidergon"],"ns":[16],"rates":[0.008],"msglen":16,"beta":0.05}`},
		{"depth", "quarc", `{"models":["quarc"],"ns":[16],"rates":[0.012],"msglen":16,"beta":0.05,"depths":[1,2,4,8,16]}`},
	} {
		var study experiments.Study
		for _, s := range experiments.Studies() {
			if s.Name == c.study {
				study = s
			}
		}
		_, outs, err := study.Run(context.Background(), experiments.DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]ResultJSON{} // by model and depth
		for _, o := range outs {
			if c.model == "" || o.Cfg.Model == c.model {
				want[fmt.Sprint(o.Cfg.Model, o.Cfg.Depth)] = EncodeResult(o.Result)
			}
		}
		out := decodeExplore(t, submitWait(t, ts, "/v1/explore", json.RawMessage(c.body)))
		if len(out.Points) != len(want) {
			t.Fatalf("%s: %d explore points for a %d-point study", c.study, len(out.Points), len(want))
		}
		for _, p := range out.Points {
			if w, ok := want[fmt.Sprint(p.Model, p.Depth)]; !ok || !reflect.DeepEqual(p.Result, w) {
				t.Errorf("%s: %s depth %d served\n%+v\nthe study measures\n%+v", c.study, p.Model, p.Depth, p.Result, w)
			}
		}
	}
}

// Every measurement of a result survives the cache round trip an explore
// point takes — encoded as a run payload, decoded back — and the decoded
// result carries the caller's configuration without its step workers. Each
// field gets a distinct non-zero value, so a field the payload drops or
// swaps fails here.
func TestDecodeRunResultRoundTripsEveryField(t *testing.T) {
	cfg := experiments.Config{Model: "spidergon", N: 16, MsgLen: 8, Rate: 0.01, Seed: 3,
		BurstMeanOn: 40, BurstMeanOff: 120, McastFrac: 0.1, McastSize: 3}.WithDefaults()
	var r experiments.Result
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case name == "Cfg":
			f.Set(reflect.ValueOf(cfg))
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(int64(i))
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(i))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s: give it a value here", name, f.Kind())
		}
	}
	b, err := json.Marshal(EncodeRun(r, nil))
	if err != nil {
		t.Fatal(err)
	}
	var wire struct{ Result map[string]any }
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for k := range wire.Result {
		if !snake.MatchString(k) {
			t.Errorf("payload key %q is not a wire name", k)
		}
	}
	// The config echo's 11 keys (none omitted here), then every measurement.
	if want := 11 + v.NumField() - 1; len(wire.Result) != want {
		t.Errorf("payload has %d result keys, want %d: %s", len(wire.Result), want, b)
	}
	caller := cfg
	caller.StepWorkers = 3
	got, ok := decodeRunResult(b, caller)
	if !ok {
		t.Fatalf("payload does not decode: %s", b)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip lost a measurement:\n got %+v\nwant %+v\npayload %s", got, r, b)
	}
}
