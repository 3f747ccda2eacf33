package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"quarc/internal/faultinject"
	dstore "quarc/internal/store"
)

// outOfDomain is the probe list of ISSUES 19 and 25: bodies that decode
// cleanly but ask for a design point (or a sweep of them) the simulator
// cannot run. Earlier builds answered all of them 200/202 and failed,
// panicked or hung on the executor. FuzzParse seeds from the same list.
var outOfDomain = []struct{ route, body string }{
	{"/v1/runs", `{"n":16,"rate":0.01,"beta":2}`},
	{"/v1/runs", `{"n":16,"rate":0.01,"beta":-0.5}`},
	{"/v1/runs", `{"n":16,"rate":-1}`},
	{"/v1/runs", `{"n":16,"rate":5}`},
	{"/v1/runs", `{"n":16,"rate":0.01,"msglen":1}`},
	{"/v1/runs", `{"n":16,"rate":0.01,"depth":-3}`},
	{"/v1/runs", `{"n":0}`},
	{"/v1/runs", `{"n":16,"rate":0.01,"warmup":-5}`},
	{"/v1/panels", `{"n":16,"beta":2,"rates":[0.01]}`},
	{"/v1/panels", `{"n":16,"msglen":1,"rates":[0.01]}`},
	{"/v1/panels", `{"n":16,"rates":[-0.01]}`},
	{"/v1/panels", `{"n":10,"rates":[0.01]}`},
	{"/v1/panels", `{"n":16,"rates":[0.01],"opts":{"warmup":-5}}`},
	// Default panels (no rates): the legacy pair skipped the size check and
	// the grid derivation panicked on the executor.
	{"/v1/panels", `{"n":10}`},
	{"/v1/panels", `{"n":16,"msglen":1}`},
	{"/v1/panels", `{"n":9,"models":["mesh"]}`},
	{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[0.01],"msglen":1}`},
	{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[5]}`},
	{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[0.01],"beta":2}`},
	// A mesh the topology refuses to build (over 1,024 nodes): the model's
	// size check used to allow 4,096.
	{"/v1/runs", `{"topo":"mesh","n":2025,"rate":0.01}`},
	{"/v1/explore", `{"models":["mesh"],"ns":[2025],"rates":[0.01]}`},
	// Three cycle budgets whose sum wraps int64 negative past MaxTotalCycles.
	{"/v1/runs", `{"n":16,"rate":0.01,"warmup":3100000000000000000,"measure":3100000000000000000,"drain":3100000000000000000}`},
	{"/v1/panels", `{"n":16,"rates":[0.01],"opts":{"warmup":3100000000000000000,"measure":3100000000000000000,"drain":3100000000000000000}}`},
	{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[0.01],"opts":{"warmup":3100000000000000000,"measure":3100000000000000000,"drain":3100000000000000000}}`},
	// An empty name in a model list used to parse as the default, quarc.
	{"/v1/panels", `{"n":16,"models":["spidergon",""],"rates":[0.01]}`},
	{"/v1/explore", `{"models":["spidergon",""],"ns":[16],"rates":[0.01]}`},
	// A lane depth past MaxDepth: N x lanes x depth slots are one allocation
	// (TestDepthAboveCapRefused sends one just past the cap to each route).
	{"/v1/runs", `{"topo":"mesh","n":1024,"rate":0.01,"depth":1000000}`},
	{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[0.01],"opts":{"depth":257}}`},
}

// A request for something the simulator cannot run is refused at the door
// with the validator's message: no job id, no queue slot, no counter, no
// recovered panic.
func TestOutOfDomainRequestsRejected(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range outOfDomain {
		resp, err := http.Post(ts.URL+c.route+"?wait=1", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.route, c.body, resp.StatusCode, data)
			continue
		}
		var e struct{ Error string }
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			t.Errorf("%s %s: 400 without a message: %s", c.route, c.body, data)
		}
	}
	m := counters(t, svc)
	if m["quarcd_jobs_accepted_total"] != 0 || m["quarcd_panics_recovered_total"] != 0 {
		t.Fatalf("bad requests left traces: accepted=%v panics=%v", m["quarcd_jobs_accepted_total"], m["quarcd_panics_recovered_total"])
	}
	if jobs := svc.store.List(); len(jobs) != 0 {
		t.Fatalf("bad requests registered %d jobs", len(jobs))
	}
}

// Each wire cap answers 400 with its own message. The bodies are legal in
// every other field, so the message names the cap that refused them.
func TestWireCapsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	rates := strings.TrimSuffix(strings.Repeat("0.001,", MaxRatePoints+1), ",")
	models := strings.TrimSuffix(strings.Repeat(`"quarc",`, MaxPanelModels+1), ",")
	cases := []struct{ route, body, want string }{
		{"/v1/runs", `{"n":16,"rate":0.01,"msglen":4097}`, "msglen 4097 exceeds the limit 4096"},
		{"/v1/runs", `{"n":16,"rate":0.01,"workers":257}`, "workers 257 outside [0,256]"},
		{"/v1/runs", `{"n":16,"rate":0.01,"step_workers":257}`, "step_workers 257 outside [0,256]"},
		{"/v1/panels", `{"n":16,"opts":{"points":257}}`, "points 257 outside [0,256]"},
		{"/v1/panels", `{"n":4100}`, "n 4100 exceeds the limit 4096"},
		{"/v1/panels", `{"n":16,"msglen":4097}`, "msglen 4097 exceeds the limit 4096"},
		{"/v1/panels", `{"n":16,"rates":[` + rates + `]}`, "257 rates exceed the limit 256"},
		{"/v1/panels", `{"n":16,"models":[` + models + `]}`, "17 models exceed the limit 16"},
		{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[0.01],"pattern":"zipf"}`, `unknown pattern "zipf"`},
		{"/v1/explore", `{"models":["quarc"],"ns":[16],"rates":[0.01],"cost_width":-1}`, "cost_width -1 must be non-negative"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.route, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || e.Error != c.want {
			t.Errorf("%s %.60s: %d %q, want 400 %q", c.route, c.body, resp.StatusCode, e.Error, c.want)
		}
	}
}

// A body over maxBodyBytes is 413 on every submit route, whether the client
// declared its length or streamed it chunked.
func TestOversizedBodyAnswers413(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	big := append([]byte(`{"n":16,"name":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	big = append(big, `"}`...)
	for _, k := range kinds {
		for _, chunked := range []bool{false, true} {
			var body io.Reader = bytes.NewReader(big)
			if chunked {
				body = struct{ io.Reader }{body} // hides the length: net/http streams it chunked
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+k.route, body)
			if err != nil {
				t.Fatal(err)
			}
			if chunked != (req.ContentLength <= 0) {
				t.Fatalf("chunked=%v but ContentLength=%d", chunked, req.ContentLength)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s chunked=%v: status %d, want 413", k.route, chunked, resp.StatusCode)
			}
		}
	}
	if n := counters(t, svc)["quarcd_jobs_accepted_total"]; n != 0 {
		t.Fatalf("oversized bodies registered %v jobs", n)
	}
}

// A job echoes its request body byte for byte whether the client declared
// its length (read into a buffer of exactly that size) or streamed it
// chunked (read whole, then copied to its size), insignificant whitespace
// included: the echo is the body as JSON renders it, compacted.
func TestRequestEchoIgnoresHowTheBodyArrived(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"n":8,"msglen":4,"rate":0.002,"warmup":100,"measure":300,"drain":3000,"seed":61}`,
		" {\n\t\"n\" : 8, \"msglen\":4 ,\"rate\": 0.002,\r\n \"warmup\":100,\"measure\":300,\"drain\":3000, \"seed\":62 }\n",
	} {
		var want bytes.Buffer
		if err := json.Compact(&want, []byte(body)); err != nil {
			t.Fatal(err)
		}
		for _, chunked := range []bool{false, true} {
			var r io.Reader = strings.NewReader(body)
			if chunked {
				r = struct{ io.Reader }{r} // hides the length: net/http streams it chunked
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?wait=1", r)
			if err != nil {
				t.Fatal(err)
			}
			if chunked != (req.ContentLength <= 0) {
				t.Fatalf("chunked=%v but ContentLength=%d", chunked, req.ContentLength)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("chunked=%v: %s: %s (%v)", chunked, resp.Status, reply, err)
			}
			var job struct {
				ID      string          `json:"id"`
				Request json.RawMessage `json:"request"`
			}
			if err := json.Unmarshal(reply, &job); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(job.Request, want.Bytes()) {
				t.Errorf("chunked=%v: reply echoes %s, want %s", chunked, job.Request, want.Bytes())
			}
			// The retained record echoes the same bytes later.
			_, later := postJSONGet(t, ts.URL+"/v1/jobs/"+job.ID)
			if err := json.Unmarshal(later, &job); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(job.Request, want.Bytes()) {
				t.Errorf("chunked=%v: GET /v1/jobs/%s echoes %s, want %s", chunked, job.ID, job.Request, want.Bytes())
			}
		}
	}
}

func TestCoalescerJoinRelease(t *testing.T) {
	c := newCoalescer()
	job := func(id string) *Job { return newJob(id, "run", "k", nil, nil, nil) }
	p, f1, f2, f3 := job("p"), job("f1"), job("f2"), job("f3")
	if got := c.join(p, nil, 0); got != nil {
		t.Fatalf("first join returned primary %v, want nil", got.ID)
	}
	// Each follower keeps the work and deadline it is admitted with if
	// promoted; the deadline stands in for both here.
	for i, f := range []*Job{f1, f2, f3} {
		if got := c.join(f, nil, time.Duration(i+1)); got != p {
			t.Fatalf("follower %s joined %v, want the primary", f.ID, got)
		}
	}
	// A follower is not the primary: its release changes nothing.
	if fs, next := c.release(f2, true); fs != nil || next.Job != nil || len(c.inflight["k"].followers) != 3 {
		t.Fatalf("non-primary release: followers=%v next=%v", fs, next.Job)
	}
	// Without a result the first live follower is promoted with its own
	// deadline; terminal ones are dropped from the chain.
	f1.setState(StateCancelled, "")
	fs, next := c.release(p, false)
	if fs != nil || next.Job != f2 || next.deadline != 2 {
		t.Fatalf("release without result: followers=%v next=%v (deadline %d), want promotion of f2", fs, next.Job, next.deadline)
	}
	if ch := c.inflight["k"]; ch.primary != f2 || len(ch.followers) != 1 || ch.followers[0].Job != f3 {
		t.Fatalf("chain after promotion: %+v", ch)
	}
	// With a result the followers come back in join order and the key is free.
	fs, next = c.release(f2, true)
	if len(fs) != 1 || fs[0].Job != f3 || next.Job != nil {
		t.Fatalf("release with result: followers=%v next=%v", fs, next.Job)
	}
	if len(c.inflight) != 0 {
		t.Fatal("key still in flight after its primary released with a result")
	}
	// No live follower left: the key is freed without a promotion.
	q, g := job("q"), job("g")
	c.join(q, nil, 0)
	c.join(g, nil, 0)
	g.setState(StateCancelled, "")
	if fs, next := c.release(q, false); fs != nil || next.Job != nil || len(c.inflight) != 0 {
		t.Fatalf("release with only terminal followers: followers=%v next=%v inflight=%d", fs, next.Job, len(c.inflight))
	}
}

// fullQueueServer returns a server whose single executor is busy and whose
// single queue slot is taken, so the next admit is turned away.
func fullQueueServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	svc, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	long := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 50}
	_, d := postJSON(t, ts.URL+"/v1/runs", long)
	var running JobJSON
	if err := json.Unmarshal(d, &running); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, running.ID, StateRunning, 10*time.Second)
	long.Seed = 51
	if resp, body := postJSON(t, ts.URL+"/v1/runs", long); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submission: %s: %s", resp.Status, body)
	}
	return svc, ts
}

// chainOf registers a primary and two followers of one request, as
// submissions racing into the enqueue window would leave them, and returns
// them with the primary's parsed work.
func chainOf(t *testing.T, svc *Server, kindName string, req any) ([]*Job, work) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	var primaryWork work
	for i := 0; i < 3; i++ {
		key, w, deadline, err := parseKind(kindName, body)
		if err != nil {
			t.Fatal(err)
		}
		j := svc.store.Add(kindName, key, body)
		if primary := svc.co.join(j, w, deadline); (primary == nil) != (i == 0) {
			t.Fatalf("job %d joined as primary=%v", i, primary == nil)
		}
		if i == 0 {
			primaryWork = w
		}
		jobs = append(jobs, j)
	}
	return jobs, primaryWork
}

// A full queue sheds an analyzable run degraded, and the followers that
// attached in the enqueue window settle degraded with it: one
// degraded_answers per job, no rejection.
func TestQueueFullSettlesRunChainDegraded(t *testing.T) {
	svc, _ := fullQueueServer(t)
	req := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 52}
	jobs, w := chainOf(t, svc, "run", req)
	if err := svc.admit(jobs[0], w, 0); err == nil {
		t.Fatal("admit into a full queue succeeded")
	}
	for _, j := range jobs {
		snap := j.Snapshot(true)
		if snap.State != StateDone || !snap.Degraded || len(snap.Result) == 0 {
			t.Fatalf("job %s: state=%s degraded=%v, want done degraded with a payload", j.ID, snap.State, snap.Degraded)
		}
	}
	m := counters(t, svc)
	if m["quarcd_degraded_answers_total"] != 3 || m["quarcd_jobs_rejected_total"] != 0 || m["quarcd_cached_responses_total"] != 0 {
		t.Fatalf("degraded=%v rejected=%v cached=%v, want 3/0/0",
			m["quarcd_degraded_answers_total"], m["quarcd_jobs_rejected_total"], m["quarcd_cached_responses_total"])
	}
	if _, ok := svc.co.inflight[jobs[0].Key]; ok {
		t.Fatal("shed chain still in flight")
	}
}

// A panel has no stand-in: the full queue rejects the primary, and each
// follower it hands the key to is rejected in turn — one jobs_rejected per job.
func TestQueueFullRejectsPanelChain(t *testing.T) {
	svc, _ := fullQueueServer(t)
	jobs, w := chainOf(t, svc, "panel", tinyPanel())
	if err := svc.admit(jobs[0], w, 0); err == nil {
		t.Fatal("admit into a full queue succeeded")
	}
	for _, j := range jobs {
		if snap := j.Snapshot(false); snap.State != StateFailed || !strings.Contains(snap.Error, "queue full") {
			t.Fatalf("job %s: state=%s error=%q, want failed on the full queue", j.ID, snap.State, snap.Error)
		}
	}
	m := counters(t, svc)
	if m["quarcd_jobs_rejected_total"] != 3 || m["quarcd_degraded_answers_total"] != 0 {
		t.Fatalf("rejected=%v degraded=%v, want 3/0", m["quarcd_jobs_rejected_total"], m["quarcd_degraded_answers_total"])
	}
	if _, ok := svc.co.inflight[jobs[0].Key]; ok {
		t.Fatal("rejected chain still in flight")
	}
}

// outcomeCounts are the counters a job's terminal transition moves.
type outcomeCounts struct{ done, failed, cancelled, rejected, cached, degraded float64 }

func countsOf(m map[string]float64) outcomeCounts {
	return outcomeCounts{m["quarcd_jobs_done_total"], m["quarcd_jobs_failed_total"], m["quarcd_jobs_cancelled_total"],
		m["quarcd_jobs_rejected_total"], m["quarcd_cached_responses_total"], m["quarcd_degraded_answers_total"]}
}

// newestJob posts body to path without waiting and returns the job the server
// registered for it: the newest one, so a refused submission is found too.
func newestJob(t *testing.T, svc *Server, ts *httptest.Server, path string, body any) *Job {
	t.Helper()
	postJSON(t, ts.URL+path, body)
	jobs := svc.store.List()
	return jobs[len(jobs)-1]
}

// Every way a job can end is counted before anyone can see it end: the
// moment WaitTerminal returns, /metrics already carries the job's exact
// counter deltas. (A client that saw "done" and then scraped /metrics used to
// be able to miss its own degraded or cached answer.)
func TestTerminalTransitionCountedBeforeWake(t *testing.T) {
	deadlineRun := slowRun()
	deadlineRun.Measure, deadlineRun.DeadlineMs = 400_000_000, 300
	longRun := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 3}
	panicRun := RunRequest{Topo: "panictest", N: 8, MsgLen: 4, Rate: 0.002,
		Warmup: 100, Measure: 300, Drain: 3000, Seed: 1}
	shedRun := RunRequest{N: 8, MsgLen: 4, Rate: 0.002, Warmup: 100, Measure: 400_000_000, Seed: 52}

	cases := []struct {
		name      string
		fullQueue bool
		warm      bool // simulate the request once before the baseline
		// start launches the job after the baseline snapshot and returns it.
		start func(t *testing.T, svc *Server, ts *httptest.Server) *Job
		want  outcomeCounts
	}{
		{"simulated", false, false, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			return newestJob(t, svc, ts, "/v1/runs", quickRun())
		}, outcomeCounts{done: 1}},
		{"cached", false, true, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			return newestJob(t, svc, ts, "/v1/runs", quickRun())
		}, outcomeCounts{done: 1, cached: 1}},
		{"degraded by deadline", false, false, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			return newestJob(t, svc, ts, "/v1/runs", deadlineRun)
		}, outcomeCounts{done: 1, degraded: 1}},
		{"degraded by shed", true, false, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			return newestJob(t, svc, ts, "/v1/runs", shedRun)
		}, outcomeCounts{done: 1, degraded: 1}},
		{"failed", false, false, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			return newestJob(t, svc, ts, "/v1/runs", panicRun)
		}, outcomeCounts{failed: 1}},
		{"rejected", true, false, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			return newestJob(t, svc, ts, "/v1/panels", tinyPanel())
		}, outcomeCounts{failed: 1, rejected: 1}},
		{"cancelled", false, false, func(t *testing.T, svc *Server, ts *httptest.Server) *Job {
			j := newestJob(t, svc, ts, "/v1/runs", longRun)
			waitState(t, ts, j.ID, StateRunning, 10*time.Second)
			j.Cancel() // a running job: its executor makes the transition
			return j
		}, outcomeCounts{cancelled: 1}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var svc *Server
			var ts *httptest.Server
			if c.fullQueue {
				svc, ts = fullQueueServer(t)
			} else {
				svc, ts = newTestServer(t, Config{Workers: 1})
			}
			if c.warm {
				submitWait(t, ts, "/v1/runs", quickRun())
			}
			before := countsOf(counters(t, svc))
			j := c.start(t, svc, ts)
			j.WaitTerminal(context.Background())
			after := countsOf(counters(t, svc))
			got := outcomeCounts{
				after.done - before.done, after.failed - before.failed,
				after.cancelled - before.cancelled, after.rejected - before.rejected,
				after.cached - before.cached, after.degraded - before.degraded,
			}
			if got != c.want {
				t.Fatalf("job %s ended %s: counter deltas %+v, want %+v", j.ID, j.State(), got, c.want)
			}
		})
	}
}

// flakyFS is the plain filesystem with a switch that fails every file read,
// counting the reads and opens that reach it.
type flakyFS struct {
	faultinject.OS
	failReads bool
	ops       int
}

func (f *flakyFS) ReadFile(path string) ([]byte, error) {
	f.ops++
	if f.failReads {
		return nil, faultinject.ErrInjected
	}
	return f.OS.ReadFile(path)
}

func (f *flakyFS) OpenFile(path string, flag int, perm os.FileMode) (faultinject.File, error) {
	f.ops++
	return f.OS.OpenFile(path, flag, perm)
}

func TestResultTier(t *testing.T) {
	fs := &flakyFS{}
	disk, err := dstore.OpenFS(t.TempDir(), 1<<20, fs)
	if err != nil {
		t.Fatal(err)
	}
	newTier := func() *resultTier {
		return &resultTier{mem: NewCache(1 << 20), disk: disk, breaker: NewBreaker(2, time.Hour, time.Hour),
			metrics: NewMetrics(), log: log.New(io.Discard, "", 0)}
	}
	key, val := strings.Repeat("ab", 32), []byte(`{"v":1}`)
	tier := newTier()
	tier.put(key, val)

	// A fresh memory tier over the same disk: the disk hit counts, reports
	// Success and refills memory, so the second lookup never reaches the disk.
	tier = newTier()
	tier.breaker.Failure()
	if b, ok := tier.get(key); !ok || !bytes.Equal(b, val) {
		t.Fatalf("disk hit: %q %v", b, ok)
	}
	if tier.metrics.storeHits.Load() != 1 || tier.breaker.failures != 0 {
		t.Fatalf("disk hit: store_hits=%d failures=%d, want 1 and a reset count", tier.metrics.storeHits.Load(), tier.breaker.failures)
	}
	before := fs.ops
	if _, ok := tier.probe(key); !ok || fs.ops != before || tier.metrics.storeHits.Load() != 1 {
		t.Fatal("second lookup was not served from the refilled memory tier")
	}

	// An index miss is Neutral: the failure count stays. get counts the
	// memory miss, probe never does.
	tier = newTier()
	tier.breaker.Failure()
	if _, ok := tier.get("absent"); ok {
		t.Fatal("absent key hit")
	}
	if _, ok := tier.probe("absent"); ok {
		t.Fatal("absent key hit")
	}
	if _, misses := tier.mem.Stats(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (get counts, probe does not)", misses)
	}
	if tier.breaker.failures != 1 || tier.metrics.storeFaults.Load() != 0 {
		t.Fatalf("index miss: failures=%d faults=%d, want 1/0", tier.breaker.failures, tier.metrics.storeFaults.Load())
	}

	// An I/O error on a resident entry is a Failure and a store fault — and a
	// miss, never an error, to the caller. Being the second failure in a row
	// it opens the breaker, after which the disk is not touched at all.
	fs.failReads = true
	if _, ok := tier.get(key); ok {
		t.Fatal("failing read served a hit")
	}
	if tier.metrics.storeFaults.Load() != 1 || tier.breaker.State() != BreakerOpen {
		t.Fatalf("I/O error: faults=%d breaker=%s, want 1 and open", tier.metrics.storeFaults.Load(), tier.breaker.State())
	}
	before = fs.ops
	tier.get(key)
	tier.put(strings.Repeat("cd", 32), val)
	if fs.ops != before {
		t.Fatalf("open breaker let %d operations through to the disk", fs.ops-before)
	}
	if _, ok := tier.mem.get(strings.Repeat("cd", 32), false); !ok {
		t.Fatal("put under an open breaker skipped the memory tier")
	}
}

// journalDir seeds a data directory with one job journal.
func journalDir(t *testing.T, id, content string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal", id+".ndjson"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A journaled body carrying a field this build does not know is dropped at
// boot, not executed under a key it does not match (the old recovery decoded
// leniently and ran it); so is a journal of an unknown kind.
func TestRecoveryDropsUnparseableJournal(t *testing.T) {
	for _, hdr := range []string{
		`{"journal":"quarc-job-v1","id":"j000007","kind":"run","key":"k","created":"2026-01-01T00:00:00Z","request":{"n":8,"msglen":4,"rate":0.002,"warmup":100,"measure":300,"drain":3000,"flux":1}}`,
		`{"journal":"quarc-job-v1","id":"j000007","kind":"trace","key":"k","created":"2026-01-01T00:00:00Z","request":{"n":8}}`,
	} {
		dir := journalDir(t, "j000007", hdr+"\n"+`{"type":"state","state":"queued"}`+"\n")
		svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
		if _, ok := svc.store.Get("j000007"); ok {
			t.Errorf("unparseable journal was recovered as a job: %s", hdr)
		}
		m := counters(t, svc)
		if m["quarcd_jobs_recovered_total"] != 0 || m["quarcd_points_simulated_total"] != 0 {
			t.Errorf("recovered=%v points=%v, want 0/0", m["quarcd_jobs_recovered_total"], m["quarcd_points_simulated_total"])
		}
		if _, err := os.Stat(filepath.Join(dir, "journal", "j000007.ndjson")); !os.IsNotExist(err) {
			t.Errorf("dropped journal still on disk (%v)", err)
		}
	}
}

// testdata/parent-data-dir is a -data-dir written by the build before the
// request pipeline was rewritten (commit e6777c3, quarcd -workers 1): a done
// run (j000001, result on disk), a run cancelled while running (j000002) and
// a panel still queued behind a long run when the daemon was SIGKILLed
// (j000004; the long run's own journal, j000003, was deleted so the test
// stays short). expect/ holds what that same build served after restarting
// over the directory. This build must recover it to the same bytes.
func TestRecoversParentDataDir(t *testing.T) {
	src := filepath.Join("testdata", "parent-data-dir")
	dir := t.TempDir()
	for _, sub := range []string{"journal", "results"} {
		entries, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(src, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sub, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if n := counters(t, svc)["quarcd_jobs_recovered_total"]; n != 3 {
		t.Fatalf("recovered %v jobs, want 3", n)
	}
	for id, want := range map[string]State{"j000001": StateDone, "j000002": StateCancelled, "j000004": StateDone} {
		job := waitState(t, ts, id, want, 30*time.Second)
		wantResult, err := os.ReadFile(filepath.Join(src, "expect", id+".result.json"))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if !bytes.Equal(job.Result, wantResult) {
			t.Errorf("%s result differs from the parent build's:\n got %s\nwant %s", id, job.Result, wantResult)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		events, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantEvents, err := os.ReadFile(filepath.Join(src, "expect", id+".events.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(events, wantEvents) {
			t.Errorf("%s events differ from the parent build's:\n got %s\nwant %s", id, events, wantEvents)
		}
	}
	m := counters(t, svc)
	if m["quarcd_store_hits_total"] != 0 || m["quarcd_points_simulated_total"] != 4 {
		t.Fatalf("store_hits=%v points=%v, want 0 (the boot re-attach is uncounted) and 4 (the re-run panel)",
			m["quarcd_store_hits_total"], m["quarcd_points_simulated_total"])
	}
}

// Job-record eviction is O(1) at any capacity: Add on a full store allocates
// the job and its list node, not a copy of every retained id.
func TestStoreAddAtCapacityAllocatesLittle(t *testing.T) {
	perAdd := func(capacity int) float64 {
		s := NewStore(capacity, nil, nil, nil)
		add := func() { s.Add("run", "k", nil).setState(StateDone, "") }
		for i := 0; i < capacity; i++ {
			add()
		}
		const n = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			add()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, full := perAdd(64), perAdd(4096)
	if full >= 4096 || full > 2*small {
		t.Fatalf("Add at capacity 4096 allocates %.0f B/op (64-entry store: %.0f B/op), want < 4096 and within 2x", full, small)
	}
}

// Eviction takes the oldest terminal jobs in creation order and steps over
// live ones wherever they sit.
func TestStoreEvictionOrderSkipsLiveJobs(t *testing.T) {
	var evicted []string
	s := NewStore(3, func(j *Job) { evicted = append(evicted, j.ID) }, nil, nil)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, s.Add("run", "k", nil))
	}
	jobs[1].setState(StateDone, "") // live, done, live
	jobs = append(jobs, s.Add("run", "k", nil))
	jobs[0].setState(StateDone, "")
	jobs[3].setState(StateDone, "") // done, (evicted), live, done
	jobs = append(jobs, s.Add("run", "k", nil), s.Add("run", "k", nil))
	want := []string{jobs[1].ID, jobs[0].ID, jobs[3].ID}
	if strings.Join(evicted, ",") != strings.Join(want, ",") {
		t.Fatalf("eviction order %v, want %v", evicted, want)
	}
	var left []string
	for _, j := range s.List() {
		left = append(left, j.ID)
	}
	if want := []string{jobs[2].ID, jobs[4].ID, jobs[5].ID}; strings.Join(left, ",") != strings.Join(want, ",") {
		t.Fatalf("retained %v, want %v in creation order", left, want)
	}
	if _, ok := s.Get(jobs[2].ID); !ok {
		t.Fatal("live job evicted")
	}
}

// FuzzParse drives the one entry point every request body crosses. Accepted
// bodies must come out fully planned and re-parse to the same key; rejected
// ones must come back as an error, never a panic.
func FuzzParse(f *testing.F) {
	seeds := []struct{ route, body string }{
		{"/v1/runs", `{"n":16,"msglen":16,"rate":0.01,"seed":1}`},
		{"/v1/runs", `{"topo":"mesh","n":16,"rate":0.01,"pattern":"hotspot","hotspot_bias":0.5,"replicates":3,"deadline_ms":300}`},
		{"/v1/runs", `{"n":16,"rate":0.01,"burst_mean_on":40,"burst_mean_off":120,"mcast_frac":0.2,"mcast_size":3}`},
		{"/v1/panels", `{"n":8,"beta":0.05,"rates":[0.002],"opts":{"warmup":100,"measure":400,"drain":4000}}`},
		{"/v1/panels", `{"n":16,"models":["quarc","spidergon","ring"],"mcast_frac":0.1,"mcast_size":4}`},
		{"/v1/explore", `{"models":["quarc","spidergon"],"ns":[16],"rates":[0.005,0.01],"opts":{"warmup":200,"measure":1000,"drain":8000,"seed":7}}`},
		{"/v1/explore", `{"models":["quarc","mesh"],"ns":[9,16],"rates":[0.01],"depths":[2,4],"mcast":[{"frac":0.2,"size":3}]}`},
		{"/v1/runs", `{"n":16}{"n":8}`},
		{"/v1/runs", `{"n":16,"bogus":1}`},
	}
	seeds = append(seeds, outOfDomain...)
	for _, s := range seeds {
		for i, k := range kinds {
			if k.route == s.route {
				f.Add(uint8(i), []byte(s.body))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		k := kinds[int(which)%len(kinds)]
		key, w, deadline, err := k.parse(body)
		if err != nil {
			if key != "" || w != nil {
				t.Fatalf("rejected body still returned key %q work %v", key, w)
			}
			return
		}
		if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
			t.Fatalf("key %q is not 64 hex digits", key)
		}
		if w == nil || deadline < 0 {
			t.Fatalf("accepted body planned work=%v deadline=%v", w, deadline)
		}
		if again, _, _, err := k.parse(body); err != nil || again != key {
			t.Fatalf("re-parse: key %q err %v, want %q", again, err, key)
		}
		w.class()
		w.degraded("fuzz")
	})
}
