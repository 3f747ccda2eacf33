// Command quarcload is a closed-loop load generator for quarcd: a pool of
// concurrent clients submits single-run jobs with ?wait=1, mixing requests
// that share a small pool of hot seeds (cache hits after first touch) with
// unique-seed requests (forced simulations; cold seeds count up from the
// start time, so a second burst is cold again), then reports throughput,
// latency percentiles, cache-hit, degraded-answer and success rates.
// Transient 503s are retried with jittered exponential backoff honouring
// Retry-After. It exits non-zero unless every request succeeded (and, with
// -min-degraded, unless enough answers were degraded), so CI can use a burst
// as a serving or chaos smoke test.
//
// With -follow it is instead a reconnect-and-replay event tailer: it streams
// one job's NDJSON events (GET /v1/jobs/{id}/events), and on any broken
// connection reconnects with ?from=<events seen so far>, so every event is
// printed exactly once across disconnects — and, with a durable daemon,
// across daemon restarts. It exits 0 when the job ends done, non-zero
// otherwise.
//
// Examples:
//
//	quarcload -addr http://127.0.0.1:8080 -n 200 -c 8
//	quarcload -addr http://127.0.0.1:8080 -n 50 -c 4 -cached 0
//	quarcload -addr http://127.0.0.1:8080 -model ring -n 100
//	quarcload -addr http://127.0.0.1:8080 -follow j000003
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quarc/internal/service"
	"quarc/internal/stats"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "quarcd base URL")
		total     = flag.Int("n", 200, "total requests")
		conc      = flag.Int("c", 8, "concurrent clients")
		cached    = flag.Float64("cached", 0.5, "fraction of requests drawn from the hot-seed pool (cacheable)")
		hotSeeds  = flag.Int("hot-seeds", 4, "distinct seeds in the hot pool")
		modelName = flag.String("model", "quarc",
			"network model submitted by every request (validated against the daemon's GET /v1/models)")
		nodes   = flag.Int("nodes", 8, "nodes per simulated network")
		rate    = flag.Float64("rate", 0.005, "offered load per request")
		measure = flag.Int64("measure", 1000, "measured cycles per request")
		timeout = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		ready   = flag.Duration("ready-timeout", 10*time.Second, "how long to wait for the daemon to answer /healthz")
		follow  = flag.String("follow", "", "tail one job's event stream (reconnect-and-replay) instead of generating load")

		deadlineMs  = flag.Int64("deadline-ms", 0, "deadline_ms sent on every request (0 = none); expired analyzable runs come back as degraded analytic answers")
		minDegraded = flag.Int("min-degraded", 0, "exit non-zero unless at least this many answers were degraded (chaos smoke: proves the degraded path fired)")
	)
	flag.Parse()
	if *follow != "" {
		os.Exit(followJob(*addr, *follow, *ready))
	}
	if *total < 1 || *conc < 1 || *hotSeeds < 1 {
		fmt.Fprintln(os.Stderr, "quarcload: -n, -c and -hot-seeds must be positive")
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	if err := waitReady(client, *addr, *ready); err != nil {
		fmt.Fprintf(os.Stderr, "quarcload: daemon not ready: %v\n", err)
		os.Exit(1)
	}
	if err := checkModel(client, *addr, *modelName); err != nil {
		fmt.Fprintf(os.Stderr, "quarcload: %v\n", err)
		os.Exit(2)
	}

	type sample struct {
		latency  time.Duration
		cached   bool
		degraded bool
		err      error
	}
	samples := make([]sample, *total)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	coldBase := coldSeedBase(start)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *total {
					return
				}
				req := service.RunRequest{
					Topo: *modelName, N: *nodes, MsgLen: 4, Beta: 0.05, Rate: *rate,
					Warmup: 200, Measure: *measure, Drain: 5000,
					DeadlineMs: *deadlineMs,
				}
				req.Seed = seedFor(i, *cached, *hotSeeds, coldBase)
				t0 := time.Now()
				hit, deg, err := post(client, *addr, req)
				samples[i] = sample{latency: time.Since(t0), cached: hit, degraded: deg, err: err}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ok, hits, degraded int
	var lats []float64
	var firstErr error
	for _, s := range samples {
		if s.err != nil {
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		ok++
		if s.cached {
			hits++
		}
		if s.degraded {
			degraded++
		}
		lats = append(lats, float64(s.latency.Microseconds())/1000.0)
	}
	sort.Float64s(lats)

	fmt.Printf("requests        %d (%d clients, closed loop, model %s, cold seeds from %d)\n",
		*total, *conc, *modelName, coldBase)
	fmt.Printf("elapsed         %.2fs\n", elapsed.Seconds())
	// Throughput counts completed requests only: failed requests did no
	// useful work, and counting them would inflate the figure exactly when
	// the daemon is struggling.
	fmt.Printf("throughput      %.1f req/s\n", float64(ok)/elapsed.Seconds())
	fmt.Printf("success rate    %.2f%% (%d/%d)\n", 100*float64(ok)/float64(*total), ok, *total)
	fmt.Printf("cached          %.2f%% of successes (%d)\n", pct(hits, ok), hits)
	fmt.Printf("degraded        %.2f%% of successes (%d analytic answers)\n", pct(degraded, ok), degraded)
	if len(lats) > 0 {
		fmt.Printf("latency p50     %.2f ms\n", stats.Percentile(lats, 50))
		fmt.Printf("latency p95     %.2f ms\n", stats.Percentile(lats, 95))
		fmt.Printf("latency p99     %.2f ms\n", stats.Percentile(lats, 99))
		fmt.Printf("latency max     %.2f ms\n", lats[len(lats)-1])
	}
	if ok != *total {
		fmt.Fprintf(os.Stderr, "quarcload: %d/%d requests failed; first error: %v\n",
			*total-ok, *total, firstErr)
		os.Exit(1)
	}
	if degraded < *minDegraded {
		fmt.Fprintf(os.Stderr, "quarcload: %d degraded answers, want at least %d\n",
			degraded, *minDegraded)
		os.Exit(1)
	}
}

// coldSeedBase is where a generator started at start begins numbering its
// cold (never-cached) seeds: nanoseconds since the epoch, so two bursts draw
// disjoint cold seeds unless they start within nanoseconds of each other.
func coldSeedBase(start time.Time) uint64 { return uint64(start.UnixNano()) }

// seedFor picks request i's seed. The hot/cold split is deterministic and
// evenly interleaved: request i is hot when the running count of hot requests
// should grow (Bresenham-style), so any -n yields round(n*frac) hot requests
// spread across the run. Hot requests cycle through the fixed pool 1000+k
// (shared by every generator); cold request i gets coldBase+i.
func seedFor(i int, cached float64, hotSeeds int, coldBase uint64) uint64 {
	hotOrdinal := int(float64(i) * cached)
	if int(float64(i+1)*cached) > hotOrdinal {
		return 1000 + uint64(hotOrdinal%hotSeeds)
	}
	return coldBase + uint64(i)
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// waitReady polls /healthz until the daemon answers.
func waitReady(client *http.Client, addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}

// checkModel validates the requested model against the daemon's registry
// (GET /v1/models), so a typo fails fast with the available names instead of
// as -n failed submissions.
func checkModel(client *http.Client, addr, name string) error {
	resp, err := client.Get(addr + "/v1/models")
	if err != nil {
		return fmt.Errorf("list models: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("list models: %s", resp.Status)
	}
	var models []service.ModelJSON
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		return fmt.Errorf("decode models: %w", err)
	}
	var names []string
	for _, m := range models {
		if m.Name == name {
			return nil
		}
		names = append(names, m.Name)
	}
	return fmt.Errorf("unknown model %q (daemon offers: %s)", name, strings.Join(names, ", "))
}

// followJob tails one job's NDJSON event stream to stdout, reconnecting
// with ?from=<events seen> whenever the connection breaks — a network blip,
// a proxy timeout, or a durable daemon restarting — so every event prints
// exactly once across any number of reconnects. Returns the exit code: 0
// when the job ends done, 1 when it fails, is cancelled, or disappears.
func followJob(addr, id string, ready time.Duration) int {
	// No client timeout: the stream is long-lived by design and reconnection
	// handles every failure mode a deadline would.
	client := &http.Client{}
	seen := 0
	var last service.State
	for {
		if err := waitReady(client, addr, ready); err != nil {
			fmt.Fprintf(os.Stderr, "quarcload: daemon not ready: %v\n", err)
			return 1
		}
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", addr, id, seen))
		if err != nil {
			fmt.Fprintf(os.Stderr, "quarcload: connect: %v (reconnecting)\n", err)
			time.Sleep(500 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// Recovery runs before the daemon listens, so a 404 is
			// authoritative: the job is gone, not still booting.
			fmt.Fprintf(os.Stderr, "quarcload: %s: %s\n", resp.Status, bytes.TrimSpace(body))
			return 1
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			var e service.Event
			if err := json.Unmarshal(line, &e); err != nil {
				continue // torn tail of a dying connection; resume from seen
			}
			seen++
			fmt.Printf("%s\n", line)
			if e.Type == "state" {
				last = e.State
			}
		}
		resp.Body.Close()
		switch last {
		case service.StateDone:
			return 0
		case service.StateFailed, service.StateCancelled:
			return 1
		}
		// The stream broke mid-job: reconnect and replay from where it broke.
		time.Sleep(500 * time.Millisecond)
	}
}

// post submits one run with ?wait=1 and reports whether it was served from
// cache and whether the answer is a degraded analytic estimate. A 503
// (queue full on an un-sheddable request, or the daemon draining) is retried
// with jittered exponential backoff, honouring a Retry-After header when the
// daemon provides one — transient backpressure should read as latency, not
// failure.
func post(client *http.Client, addr string, req service.RunRequest) (cached, degraded bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, false, err
	}
	const retries = 4
	backoff := 100 * time.Millisecond
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		resp, err = client.Post(addr+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, false, err
		}
		if resp.StatusCode != http.StatusServiceUnavailable || attempt == retries {
			break
		}
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(wait)
		backoff *= 2
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, false, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var job service.JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		return false, false, fmt.Errorf("decode job: %w", err)
	}
	if job.State != service.StateDone {
		return false, false, fmt.Errorf("job %s finished %s: %s", job.ID, job.State, job.Error)
	}
	if len(job.Result) == 0 {
		return false, false, fmt.Errorf("job %s done without result", job.ID)
	}
	degraded = job.Degraded
	if !degraded {
		// The wire flag is authoritative, but double-check the payload: a
		// degraded payload without the job flag would be a serving bug worth
		// surfacing in the summary.
		var rr service.RunResult
		if json.Unmarshal(job.Result, &rr) == nil && rr.Degraded {
			degraded = true
		}
	}
	return job.Cached, degraded, nil
}
