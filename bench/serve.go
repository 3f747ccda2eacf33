package main

import (
	"bytes"
	"fmt"
	"time"
)

// Serving workloads start the real cmd/quarcd binary with its default flags
// plus -quiet, and drive POST ...?wait=1 closed loop with loopClients
// keep-alive connections from this one process. Traffic crosses loopback;
// latencies are this sandbox's, not a device's.

const runsURL = "/v1/runs?wait=1"

// invariants checks the counter conservation every daemon must hold once
// its jobs have settled, and that it simulated exactly wantPoints points.
func (r *report) invariants(d *daemon, wantPoints float64, where string) map[string]float64 {
	c, err := d.counters()
	if err != nil {
		r.check(false, "%s: scrape /metrics: %v", where, err)
		return nil
	}
	acc := c["quarcd_jobs_accepted_total"]
	settled := c["quarcd_jobs_done_total"] + c["quarcd_jobs_failed_total"] + c["quarcd_jobs_cancelled_total"]
	r.check(acc == settled, "%s: jobs_accepted %v != done+failed+cancelled %v", where, acc, settled)
	got := c["quarcd_points_simulated_total"]
	r.check(got == wantPoints, "%s: points_simulated %v, want %v", where, got, wantPoints)
	return c
}

// serveHot: zero simulation. 64 tiny run keys are simulated once in set-up;
// every timed request is decode -> validate -> canonical hash -> memory cache
// -> job record -> encode -> HTTP. Set-up also sends hotFill hot requests so
// all 4096 job-record slots are resident: a fresh daemon answers ~1.5x faster
// over its first few thousand requests, and a short burst would report that.
//
// The run's windows are shared out over minWindows daemons, one after the
// other: how fast a daemon answers depends a little on the process (where its
// heap landed, how it and the client settled on the two cores), and the run's
// medians should not be one process's.
func serveHot(e *env) (*report, error) {
	r := newReport("serve_hot")
	pool := runBodies(e.seed, tagHotPool, hotPoolSize)
	fill := hotStream(e.seed^1, hotFill)
	draw := hotStream(e.seed, hotWindow) // every window replays the same draw, so windows are equal repeats
	want := make([][]byte, hotPoolSize)  // the first daemon's cold answer per key
	var rss []float64

	for i := 0; i < minWindows; i++ {
		t0 := time.Now()
		d, err := e.startDaemon("")
		if err != nil {
			return nil, err
		}
		cold := closedLoop(d.base+runsURL, hotPoolSize,
			func(k int) []byte { return pool[k] },
			func(k int, rep reply) error {
				switch {
				case rep.Cached:
					return fmt.Errorf("pre-warm key %d answered from cache", k)
				case want[k] == nil:
					want[k] = rep.Result
				case !bytes.Equal(rep.Result, want[k]):
					return fmt.Errorf("pre-warm key %d: answer differs from the first daemon's", k)
				}
				return nil
			})
		warm := closedLoop(d.base+runsURL, hotFill,
			func(k int) []byte { return pool[fill[k]] }, nil)
		r.setups = append(r.setups, time.Since(t0))
		if cold.failed+warm.failed > 0 {
			d.stop()
			return nil, fmt.Errorf("set-up: %d requests failed; first: %v %v", cold.failed+warm.failed, cold.first, warm.first)
		}

		share := e.budget * time.Duration(i+1) / minWindows
		for n := 0; n == 0 || (r.spent() < share && len(r.windows) < maxWindows); n++ {
			res := closedLoop(d.base+runsURL, hotWindow,
				func(i int) []byte { return pool[draw[i]] },
				func(i int, rep reply) error {
					if !rep.Cached {
						return fmt.Errorf("hot request was not served from cache")
					}
					if !bytes.Equal(rep.Result, want[draw[i]]) {
						return fmt.Errorf("cached answer differs from the cold answer for key %d", draw[i])
					}
					return nil
				})
			r.ops(hotWindow, res.failed, res.first)
			r.windows = append(r.windows, window{wall: res.elapsed, primary: res.elapsed, ops: hotWindow - res.failed, lat: res.lat})
		}
		r.invariants(d, hotPoolSize, "serve_hot")
		d.stop()
		rss = append(rss, d.peak)
	}
	for k := range want {
		r.digest.fold(want[k])
	}
	r.peakRSS = median(rss)
	return r, nil
}

// serveDurable uses the store the other way round: writes beside reads. One
// window is a whole life cycle on a fresh data dir — write durableKeys
// unique tiny runs (each simulates, encodes, store.Puts, journals), SIGKILL,
// restart, wait for /healthz, read every key back once (disk hits that
// refill memory). ops_per_s and the latencies describe the write phase; the
// read phase and the restart are in wall_s and in the read_* extras, so a
// gain for writes that costs restart reads (or the reverse) shows.
func serveDurable(e *env) (*report, error) {
	r := newReport("serve_durable")
	keys := runBodies(e.seed, tagCold, durableKeys)
	warm := runBodies(e.seed, tagWarm, durableWarm)
	answers := make([][]byte, durableKeys)
	var rss []float64 // per cycle: the larger of its two daemons' VmHWM

	for r.more(e) {
		dir, err := e.jan.tempDir(e.outDir, "data-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := e.startDaemon(dir)
		if err != nil {
			return nil, err
		}
		pre := closedLoop(d.base+runsURL, durableWarm, func(i int) []byte { return warm[i] }, nil)
		r.setups = append(r.setups, time.Since(t0))
		if pre.failed > 0 {
			d.kill()
			return nil, fmt.Errorf("set-up: %d warm-up requests failed; first: %v", pre.failed, pre.first)
		}

		first := len(r.windows) == 0
		t1 := time.Now()
		wr := closedLoop(d.base+runsURL, durableKeys,
			func(i int) []byte { return keys[i] },
			func(i int, rep reply) error {
				if rep.Cached {
					return fmt.Errorf("unique key %d answered from cache", i)
				}
				if first {
					answers[i] = rep.Result
				} else if !bytes.Equal(rep.Result, answers[i]) {
					return fmt.Errorf("key %d: answer differs from the first cycle's", i)
				}
				return nil
			})
		r.ops(durableKeys, wr.failed, wr.first)
		r.invariants(d, durableWarm+durableKeys, "write phase")

		d.kill()
		peak := d.peak
		t2 := time.Now()
		d, err = e.startDaemon(dir)
		if err != nil {
			return nil, err
		}
		recoverD := time.Since(t2)
		rd := closedLoop(d.base+runsURL, durableKeys,
			func(i int) []byte { return keys[i] },
			func(i int, rep reply) error {
				if !rep.Cached {
					return fmt.Errorf("key %d re-simulated after restart", i)
				}
				if !bytes.Equal(rep.Result, answers[i]) {
					return fmt.Errorf("key %d: post-restart disk answer differs from the cold answer", i)
				}
				return nil
			})
		wall := time.Since(t1)
		r.ops(durableKeys, rd.failed, rd.first)
		c := r.invariants(d, 0, "read phase")
		r.check(c["quarcd_store_hits_total"] == durableKeys, "read phase: store_hits %v, want %d", c["quarcd_store_hits_total"], durableKeys)
		d.stop()
		rss = append(rss, max(peak, d.peak))

		w := window{wall: wall, primary: wr.elapsed, ops: durableKeys - wr.failed, lat: wr.lat, extra: map[string]float64{
			"read_req_per_s": float64(durableKeys-rd.failed) / rd.elapsed.Seconds(),
			"recover_ms":     millis(recoverD),
			"jobs_recovered": c["quarcd_jobs_recovered_total"],
		}}
		s := sortedCopy(rd.lat)
		if p, err := percentile(s, 0.50); err == nil {
			w.extra["read_latency_p50_ms"] = millis(p)
		}
		if p, err := percentile(s, 0.99); err == nil {
			w.extra["read_latency_p99_ms"] = millis(p)
		}
		r.windows = append(r.windows, w)
	}
	for _, a := range answers {
		r.digest.fold(a)
	}
	r.peakRSS = median(rss)
	return r, nil
}

// exploreFront is the design-tool path: lattice expansion, analytic
// ordering, per-point cache sharing with /v1/runs and the Pareto front, with
// mid-size points going through the daemon's executor rather than the sweep
// engine. A window is a fresh memory-only daemon answering three explores:
// the lattice cold (the timed primary: 64 points), the lattice with its rate
// axis shifted one step (48 of 64 points shared), and the first body again.
func exploreFront(e *env) (*report, error) {
	r := newReport("explore_front")
	const url = "/v1/explore?wait=1"
	warm := exploreWarmBody(e.seed)
	var rss []float64
	client := newClient()
	defer client.CloseIdleConnections()

	for r.more(e) {
		// The same lattice every window, under a fresh traffic realisation.
		k := len(r.windows)
		bodyA, bodyB := exploreBody(e.seed, k, 0, exploreNs), exploreBody(e.seed, k, 1, exploreNs)
		var wantA, wantB []byte
		t0 := time.Now()
		d, err := e.startDaemon("")
		if err != nil {
			return nil, err
		}
		_, err = post(client, d.base+url, warm)
		r.setups = append(r.setups, time.Since(t0))
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("set-up: warm-up explore: %w", err)
		}
		base, _ := d.counters()
		step := func(name string, body []byte, cached bool, want *[]byte, points float64) time.Duration {
			t := time.Now()
			rep, err := post(client, d.base+url, body)
			dt := time.Since(t)
			bad := 0
			switch {
			case err != nil:
			case rep.Cached != cached:
				err = fmt.Errorf("cached=%v, want %v", rep.Cached, cached)
			case *want == nil:
				*want = rep.Result
			case !bytes.Equal(rep.Result, *want):
				err = fmt.Errorf("payload differs from the first answer to this body")
			}
			if err != nil {
				bad = 1
				err = fmt.Errorf("%s explore: %w", name, err)
			}
			r.ops(1, bad, err)
			now := r.invariants(d, base["quarcd_points_simulated_total"]+points, name+" explore")
			base["quarcd_points_simulated_total"] += points
			if name == "overlap" {
				hits := now["quarcd_explore_points_cache_hit_total"]
				r.check(hits == exploreShared, "overlap explore: %v per-point cache hits, want %d", hits, exploreShared)
			}
			return dt
		}
		t1 := time.Now()
		c0 := base["quarcd_cycles_simulated_total"]
		cold := step("cold", bodyA, false, &wantA, explorePoints)
		c1, _ := d.counters()
		overlap := step("overlap", bodyB, false, &wantB, explorePoints-exploreShared)
		again := step("repeat", bodyA, true, &wantA, 0)
		wall := time.Since(t1)
		d.stop()
		rss = append(rss, d.peak)
		if k < minWindows { // every run has these, so the digest does not depend on speed
			r.digest.fold(wantA)
			r.digest.fold(wantB)
		}
		r.windows = append(r.windows, window{
			wall: wall, primary: cold, ops: explorePoints, lat: []time.Duration{cold},
			cycles: int64(c1["quarcd_cycles_simulated_total"] - c0),
			extra: map[string]float64{
				"overlap_wall_s": overlap.Seconds(),
				"repeat_ms":      millis(again),
			},
		})
	}
	r.peakRSS = median(rss)
	return r, nil
}
