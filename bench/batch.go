package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/service"
)

// Batch workloads run in the bench process through the library's public
// entry points with library defaults (Workers 0, StepWorkers 0), exactly as
// quarcbench and quarcsim call them. A library error is fatal: the workloads
// are chosen so that no operation fails.

// batchSetups is how often a batch workload repeats its set-up (a fraction of
// a second each): the first repeat runs cold, and a median of five is steadier
// across runs than a median of three.
const batchSetups = 5

// paperFigs regenerates Figs 9-11: 9 panels, 180 small and mid-size points
// from idle to past saturation. A window is one full pass; a "reply" is one
// panel (one RunPanelContext call, quarcd's /v1/panels unit).
func paperFigs(e *env) (*report, error) {
	r := newReport("paper_figs")
	ctx := context.Background()

	var panels []experiments.PanelSpec
	var opts experiments.RunOpts
	for i := 0; i < batchSetups; i++ {
		t0 := time.Now()
		panels, opts = figPanels(), figOpts(e.seed)
		// Warm-up pass at a tenth of the length: pages in every model's
		// builder and the sweep pool before anything is timed.
		warm := opts
		warm.Warmup, warm.Measure, warm.Drain = opts.Warmup/10, opts.Measure/10, opts.Drain/10
		for _, p := range panels {
			if _, err := experiments.RunPanelContext(ctx, p, warm); err != nil {
				return nil, fmt.Errorf("warm-up panel %q: %w", p.Name, err)
			}
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	for r.more(e) {
		var w window
		var pass chain
		t0 := time.Now()
		for _, p := range panels {
			tp := time.Now()
			pr, err := experiments.RunPanelContext(ctx, p, opts)
			w.lat = append(w.lat, time.Since(tp))
			if err != nil {
				return nil, fmt.Errorf("panel %q: %w", p.Name, err)
			}
			w.ops += experiments.PanelPointCount(p, opts)
			for _, name := range pr.Models {
				for _, reps := range pr.Raw[name] {
					for _, res := range reps {
						w.cycles += res.Cycles
					}
				}
			}
			b, err := json.Marshal(service.EncodePanel(pr))
			if err != nil {
				return nil, fmt.Errorf("encode panel %q: %w", p.Name, err)
			}
			pass.fold(b)
		}
		w.wall = time.Since(t0)
		w.primary = w.wall
		r.windows = append(r.windows, w)
		r.ops(w.ops, 0, nil)
		if len(r.windows) == 1 {
			r.digest = pass
		}
		r.check(pass == r.digest, "pass %d: panel payloads differ from pass 1", len(r.windows))
	}
	r.peakRSS = peakRSSMiB(0)
	return r, nil
}

// bigMeshPoint is the one-big-point regime: the pooled/batched step loop and
// the arbiter scan are nearly all the time; construction, the sweep engine
// and the serving path do almost nothing.
func bigMeshPoint(e *env) (*report, error) {
	r := newReport("big_mesh")
	ctx := context.Background()

	for i := 0; i < batchSetups; i++ {
		t0 := time.Now()
		// A few dozen cycles of the same fabric: builds it once, starts the
		// step pool, touches the memory.
		warm := bigMesh(e.seed, 0)
		warm.Warmup, warm.Measure, warm.Drain = 20, 60, 200
		if _, err := experiments.RunContext(ctx, warm); err != nil {
			return nil, fmt.Errorf("warm-up point: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	for r.more(e) {
		cfg := bigMesh(e.seed, len(r.windows)) // same point, fresh traffic realisation
		t0 := time.Now()
		res, err := experiments.RunContext(ctx, cfg)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("mesh point: %w", err)
		}
		r.ops(1, 0, nil)
		r.windows = append(r.windows, window{wall: d, primary: d, ops: 1, lat: []time.Duration{d}, cycles: res.Cycles})
		b, err := json.Marshal(service.EncodeRun(res, nil))
		if err != nil {
			return nil, fmt.Errorf("encode run: %w", err)
		}
		if len(r.windows) <= minWindows { // every run has these, so the digest does not depend on speed
			r.digest.fold(b)
		}
		r.check(res.Saturated && res.Cycles == cfg.Warmup+cfg.Measure+cfg.Drain,
			"window %d: saturated %v after %d cycles; the point is meant to exhaust its drain budget", len(r.windows), res.Saturated, res.Cycles)
	}
	r.peakRSS = peakRSSMiB(0)
	return r, nil
}
