package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"quarc/internal/analytic"
	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/rng"
	"quarc/internal/service"
)

// runTraced is the -trace 1 run of one workload. It has two halves:
//
//   - the ladder: every layer timed in isolation on fixed probe inputs
//     (ladder.go) plus the serving path replayed request by request next to
//     the real handler and two short probes of the real daemon. It is the
//     same whatever the workload, so every per-layer metric is measured in
//     every traced run;
//   - the replay: the named workload's own inputs walked through the layers'
//     public functions twice — tracer off, then on. The second pass's spans
//     go to bench/out/trace-<workload>.ndjson, and the ratio of the passes
//     is trace.overhead_ratio.
func runTraced(e *env) (result, error) {
	m := layerMetrics{}
	r := newReport(e.workload)
	steps := []func(*env, *report) error{m.primitives, m.fabrics, m.sweeps, m.serving, m.exploring, m.daemons, m.replay}
	for _, step := range steps {
		if err := step(e, r); err != nil {
			return result{}, err
		}
	}
	return result{
		Workload: e.workload, Seed: e.seed, Traced: true,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: m, Failures: r.failures, BuildS: e.buildS,
	}, nil
}

func sum(d []time.Duration) (s time.Duration) {
	for _, x := range d {
		s += x
	}
	return s
}

// sweeps probes the experiments layer with the smallest and the largest
// paper panel (fig 9 N16 M8; fig 11 N64 beta 0) at the workload's fidelity:
// the engine sweeps them, then the same points are replayed one span each.
func (m layerMetrics) sweeps(e *env, r *report) error {
	ctx := context.Background()
	opts := figOpts(e.seed)
	specs := []experiments.PanelSpec{experiments.Fig9Panels()[0], experiments.Fig11Panels()[0]}
	workers := runtime.GOMAXPROCS(0)
	tr := newTracer()
	var engine time.Duration
	var cycles int64
	var all []experiments.Config
	for pi, spec := range specs {
		t0 := time.Now()
		pr, err := experiments.RunPanelContext(ctx, spec, opts)
		engine += time.Since(t0)
		if err != nil {
			return err
		}
		cfgs := panelPoints(pr)
		var want []experiments.Result
		for _, name := range pr.Models {
			for _, reps := range pr.Raw[name] {
				want = append(want, reps...)
			}
		}
		root := tr.start("panel", -1, pi)
		got, err := replayPoints(tr, root, cfgs, workers)
		tr.end(root)
		if err != nil {
			return err
		}
		err = samePoints(got, want)
		r.check(err == nil, "probe panel %q: %v", spec.Name, err)
		for _, res := range got {
			cycles += res.Cycles
		}
		all = append(all, cfgs...)
	}
	spans := tr.all()
	runs, builds := byName(spans, "experiments.RunContext"), byName(spans, "model.Build")
	slowest := time.Duration(0)
	for _, d := range runs {
		slowest = max(slowest, d)
	}
	m.set("experiments.point_ms_p50", millis(medianDur(runs)), "ms")
	m.set("experiments.point_ms_max", millis(slowest), "ms")
	m.set("experiments.build_share", sum(builds).Seconds()/sum(runs).Seconds(), "ratio")
	m.set("experiments.sweep_efficiency", sum(runs).Seconds()/(float64(workers)*engine.Seconds()), "ratio")
	m.set("experiments.points", float64(len(runs)), "count")
	m.set("experiments.cycles", float64(cycles), "count")

	// The closed form covers uniform unicast at low load, and is validated
	// (internal/analytic's suite: within 10 %) at the figures' base size, N 16
	// and M 16, at 0.005 msgs/node/cycle. Compare it with the simulator there,
	// over a window long enough that the seed's sampling noise stays well
	// inside the band. (At N 64 the closed form is off by ~25 %: outside its
	// validated domain, so not what this check pins.)
	errPct := 0.0
	for i, name := range []string{"quarc", "spidergon", "mesh"} {
		cfg := experiments.Config{Model: name, N: 16, MsgLen: 16, Rate: 0.005,
			Warmup: 1000, Measure: 20000, Drain: 20000, Seed: nonzero(rng.Derive(e.seed, tagProbe, 3, uint64(i)))}
		res, err := experiments.RunContext(ctx, cfg)
		if err != nil {
			return err
		}
		pred, ok := analytic.ForModel(name, cfg.N, cfg.MsgLen, cfg.Rate)
		r.check(ok && res.UnicastMean > 0, "analytic probe %s: no prediction or no samples", name)
		errPct = math.Max(errPct, 100*math.Abs(pred.MeanLatency-res.UnicastMean)/res.UnicastMean)
	}
	r.check(errPct <= 100*analytic.ErrorBand, "analytic vs simulated error %.2f%% above %.0f%%", errPct, 100*analytic.ErrorBand)
	m.set("analytic.err_pct_max", errPct, "%")

	var allocs []float64
	for i := 0; i < 5; i++ {
		cfg := all[i*(len(all)-1)/4]
		allocs = append(allocs, mallocs(func() { experiments.RunContext(ctx, cfg) }))
	}
	m.set("experiments.point_allocs", median(allocs), "count")

	tiny, err := tinyRun(nonzero(rng.Derive(e.seed, tagProbe, 2))).Config()
	if err != nil {
		return err
	}
	m.set("experiments.tiny_point_us", perOp(5, 20, func() {
		res, _ := experiments.RunContext(ctx, tiny)
		sink += uint64(res.Cycles)
	})/1e3, "us")
	return nil
}

// serving replays probe requests — unique then repeated — through a
// memory-only and a durable rig, and reads the service and store rows off
// the spans. Hot rows come from the repeated requests, cold rows from the
// unique ones, read rows from the durable rig after its restart.
func (m layerMetrics) serving(e *env, r *report) error {
	cold := runBodies(e.seed, tagProbe, 120)
	hot := hotStream(e.seed, 600)
	us := func(name string, spans []span, span string) time.Duration {
		d := medianDur(byName(spans, span))
		m.set(name, micros(d), "us")
		return d
	}
	for _, durable := range []bool{false, true} {
		tr := newTracer()
		rp, err := replayServe(e, tr, durable, cold, hot)
		if err != nil {
			return err
		}
		r.ops(rp.requests, 0, nil)
		spans := tr.all()
		coldS, hotS, readS := spans[rp.cold[0]:rp.cold[1]], spans[rp.hot[0]:rp.hot[1]], spans[rp.read[0]:rp.read[1]]
		if !durable {
			named := us("service.decode_validate_us", hotS, "service.decode_validate") +
				us("service.runkey_us", hotS, "service.RunKey") +
				medianDur(byName(hotS, "service.Cache.Get")) + medianDur(byName(hotS, "service.respond"))
			m.set("service.cache_get_ns", float64(medianDur(byName(hotS, "service.Cache.Get"))), "ns")
			m.set("service.cache_put_ns", float64(medianDur(byName(coldS, "service.Cache.Put"))), "ns")
			us("service.encode_us", coldS, "service.encode")
			handlerHot := us("service.handler_hot_us", hotS, "service.handler")
			handlerCold := us("service.handler_cold_us", coldS, "service.handler")
			// What the real handler spends beyond the layers the replay can
			// name: mux, job record, snapshot, coalescer (hot) and, on a
			// cold request, the trip through the scheduler and back.
			m.set("service.unattributed_hot_us", micros(handlerHot-named), "us")
			m.set("service.sched_roundtrip_us", micros(handlerCold-medianDur(byName(coldS, "replay"))), "us")
			continue
		}
		us("service.handler_hot_durable_us", hotS, "service.handler")
		us("service.handler_cold_durable_us", coldS, "service.handler")
		us("store.put_us", coldS, "store.Put")
		us("store.get_us", readS, "store.Get")
		us("store.journal_append_new_us", spans, "store.Journal.Append.new")
		us("store.journal_append_us", spans, "store.Journal.Append")
		us("store.journal_close_us", spans, "store.Journal.CloseJob") // sync + close at the terminal event
		us("store.journal_replay_us", spans, "store.Journal.Replay")
		m.set("store.disk_bytes_per_payload_byte", rp.diskRatio, "ratio")
		r.check(len(byName(readS, "store.Get")) == len(cold), "durable rig: %d disk reads after restart, want %d",
			len(byName(readS, "store.Get")), len(cold))
	}
	return nil
}

// exploring replays a 32-point probe lattice (the workload's, at N 16 only)
// and its shifted twin through explore.Run with a span-wrapped evaluator.
func (m layerMetrics) exploring(e *env, r *report) error {
	bodyA, bodyB := exploreBody(e.seed, 0, 0, []int{16}), exploreBody(e.seed, 0, 1, []int{16})
	cache := service.NewCache(64 << 20)
	tr := newTracer()
	a, err := replayExplore(tr, 0, bodyA, cache)
	if err != nil {
		return err
	}
	b, err := replayExplore(tr, 1, bodyB, cache)
	if err != nil {
		return err
	}
	n := len(a.outcome.Points)
	r.check(a.simulated == n && a.hits == 0, "probe lattice: %d simulated %d hits, want %d and 0", a.simulated, a.hits, n)
	r.check(b.simulated == n/4 && b.hits == n-n/4, "shifted probe lattice: %d simulated %d hits, want %d and %d", b.simulated, b.hits, n/4, n-n/4)
	r.check(len(a.outcome.Front) > 0, "probe lattice: empty Pareto front")

	var er service.ExploreRequest
	if err := json.Unmarshal(bodyA, &er); err != nil {
		return err
	}
	spec, opts, _, err := er.SpecOpts()
	if err != nil {
		return err
	}
	m.set("explore.expand_us", perOp(3, 100, func() {
		exp, _ := spec.Expand(opts)
		sink += uint64(len(exp.Points))
	})/1e3, "us")
	objs := frontObjectives(a.outcome)
	m.set("explore.front_us", perOp(3, 200, func() {
		front, _ := explore.Front(objs)
		sink += uint64(len(front))
	})/1e3, "us")

	// Share of the first explore's wall time its workers spent evaluating
	// points (the daemon's default is one worker).
	var points, run time.Duration
	for _, s := range tr.all() {
		switch {
		case s.Name == "explore.point" && s.Parent == 0: // span 0 is the first explore's root
			points += s.dur()
		case s.Name == "explore.Run" && s.Parent == 0:
			run = s.dur()
		}
	}
	m.set("explore.worker_utilisation", points.Seconds()/(float64(max(opts.Workers, 1))*run.Seconds()), "ratio")
	return nil
}

// daemons takes the numbers only the real process can give: what HTTP over
// loopback adds to the handler, what a restart costs, and the daemon's own
// counters over a known request mix.
func (m layerMetrics) daemons(e *env, r *report) error {
	// Memory-only: 64 keys cold, 1500 hot, then the probe lattices.
	pool := runBodies(e.seed, tagProbe, hotPoolSize)
	draw := hotStream(e.seed, 1500)
	d, err := e.startDaemon("")
	if err != nil {
		return err
	}
	defer d.kill()
	cold := closedLoop(d.base+runsURL, len(pool), func(i int) []byte { return pool[i] }, nil)
	hot := closedLoop(d.base+runsURL, len(draw), func(i int) []byte { return pool[draw[i]] }, nil)
	r.ops(len(pool)+len(draw), cold.failed+hot.failed, hot.first)
	c := r.invariants(d, hotPoolSize, "probe daemon")
	clientP50, _ := percentile(sortedCopy(hot.lat), 0.5)
	m.set("service.http_overhead_us", micros(clientP50)-m["service.handler_hot_us"].Value, "us")
	m.set("service.cache_hit_ratio", c["quarcd_cache_hits_total"]/(c["quarcd_cache_hits_total"]+c["quarcd_cache_misses_total"]), "ratio")
	m.set("service.points_simulated", c["quarcd_points_simulated_total"], "count")
	m.set("service.jobs_coalesced", c["quarcd_jobs_coalesced_total"], "count")

	client := newClient()
	defer client.CloseIdleConnections()
	for shift := 0; shift < 2; shift++ {
		if _, err := post(client, d.base+"/v1/explore?wait=1", exploreBody(e.seed, 0, shift, []int{16})); err != nil {
			return fmt.Errorf("probe explore: %w", err)
		}
	}
	c2 := r.invariants(d, hotPoolSize+32+8, "probe daemon after explores")
	m.set("explore.points_simulated", c2["quarcd_points_simulated_total"]-c["quarcd_points_simulated_total"], "count")
	// Of the second lattice's 32 points, the share answered per point from
	// the cache the first one filled.
	m.set("explore.point_cache_hit_ratio", c2["quarcd_explore_points_cache_hit_total"]/32, "ratio")
	d.stop()

	// Durable: write 200 keys, SIGKILL, restart to /healthz.
	dir, err := e.jan.tempDir(e.outDir, "data-")
	if err != nil {
		return err
	}
	d2, err := e.startDaemon(dir)
	if err != nil {
		return err
	}
	keys := runBodies(e.seed, tagCold, 200)
	wr := closedLoop(d2.base+runsURL, len(keys), func(i int) []byte { return keys[i] }, nil)
	r.ops(len(keys), wr.failed, wr.first)
	d2.kill()
	var recovered []float64
	for i := 0; i < minWindows; i++ { // the same journals recover again each time
		t0 := time.Now()
		d2, err = e.startDaemon(dir)
		if err != nil {
			return err
		}
		recovered = append(recovered, millis(time.Since(t0)))
		c3, _ := d2.counters()
		r.check(c3["quarcd_jobs_recovered_total"] == float64(len(keys)), "restart %d recovered %v jobs, want %d",
			i, c3["quarcd_jobs_recovered_total"], len(keys))
		d2.kill()
	}
	m.set("service.recover_ms", median(recovered), "ms")
	return nil
}

// replay walks the named workload's own inputs through the layers with the
// tracer off, on, and off again.
func (m layerMetrics) replay(e *env, r *report) error {
	pass, err := workloadReplay(e)
	if err != nil {
		return err
	}
	// Untraced, traced, untraced: the traced pass is compared with the mean
	// of its neighbours, so a warm-up or a drift is not booked as overhead.
	ops, before, err := pass(nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	_, traced, err := pass(tr)
	if err != nil {
		return err
	}
	_, after, err := pass(nil)
	if err != nil {
		return err
	}
	plain := (before + after) / 2
	r.ops(3*ops, 0, nil)
	spans := tr.all()
	path, err := writeTrace(e, spans)
	if err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	self := selfTimes(spans)
	var rootDur, rootSelf time.Duration
	for i, s := range spans {
		if s.Parent < 0 {
			rootDur += s.dur()
			rootSelf += self[i]
		}
	}
	m.set("trace.overhead_ratio", traced.Seconds()/plain.Seconds(), "ratio")
	m.set("trace.spans", float64(len(spans)), "count")
	m.set("trace.attributed_ratio", 1-rootSelf.Seconds()/rootDur.Seconds(), "ratio")
	return nil
}

// workloadReplay returns the workload's replay pass: given a tracer (or nil)
// it runs once and reports the operations replayed and the wall time.
func workloadReplay(e *env) (func(*tracer) (int, time.Duration, error), error) {
	ctx := context.Background()
	timed := func(ops int, fn func() error) (int, time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return ops, time.Since(t0), err
	}
	switch e.workload {
	case "paper_figs":
		// The engine sweeps every panel once (untimed) to fix the points
		// and the answers; each pass then replays all 180.
		opts := figOpts(e.seed)
		var cfgs [][]experiments.Config
		var want [][]experiments.Result
		points := 0
		for _, spec := range figPanels() {
			pr, err := experiments.RunPanelContext(ctx, spec, opts)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, panelPoints(pr))
			var w []experiments.Result
			for _, name := range pr.Models {
				for _, reps := range pr.Raw[name] {
					w = append(w, reps...)
				}
			}
			want = append(want, w)
			points += len(w)
		}
		return func(tr *tracer) (int, time.Duration, error) {
			return timed(points, func() error {
				for pi := range cfgs {
					root := tr.start("panel", -1, pi)
					got, err := replayPoints(tr, root, cfgs[pi], runtime.GOMAXPROCS(0))
					tr.end(root)
					if err == nil {
						err = samePoints(got, want[pi])
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		}, nil
	case "big_mesh":
		cfgs := []experiments.Config{bigMesh(e.seed, 0)}
		var want []experiments.Result
		return func(tr *tracer) (int, time.Duration, error) {
			return timed(1, func() error {
				got, err := replayPoints(tr, -1, cfgs, 1)
				if err != nil {
					return err
				}
				if want == nil {
					want = got
				}
				return samePoints(got, want)
			})
		}, nil
	case "serve_hot":
		pool := runBodies(e.seed, tagHotPool, hotPoolSize)
		draw := hotStream(e.seed, hotWindow)
		return func(tr *tracer) (int, time.Duration, error) {
			return timed(len(pool)+len(draw), func() error {
				_, err := replayServe(e, tr, false, pool, draw)
				return err
			})
		}, nil
	case "serve_durable":
		keys := runBodies(e.seed, tagCold, durableKeys/4)
		return func(tr *tracer) (int, time.Duration, error) {
			return timed(2*len(keys), func() error {
				_, err := replayServe(e, tr, true, keys, nil)
				return err
			})
		}, nil
	case "explore_front":
		bodyA, bodyB := exploreBody(e.seed, 0, 0, exploreNs), exploreBody(e.seed, 0, 1, exploreNs)
		return func(tr *tracer) (int, time.Duration, error) {
			return timed(3*explorePoints, func() error {
				cache := service.NewCache(64 << 20)
				for i, step := range []struct {
					body      []byte
					simulated int
				}{{bodyA, explorePoints}, {bodyB, explorePoints - exploreShared}, {bodyA, 0}} {
					rp, err := replayExplore(tr, i, step.body, cache)
					if err != nil {
						return err
					}
					if rp.simulated != step.simulated {
						return fmt.Errorf("explore %d simulated %d points, want %d", i, rp.simulated, step.simulated)
					}
				}
				return nil
			})
		}, nil
	}
	return nil, fmt.Errorf("no replay for workload %q", e.workload)
}
