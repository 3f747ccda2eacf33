package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/model"
	"quarc/internal/service"
	"quarc/internal/store"
)

// The replays walk a workload's inputs through each layer's public functions
// with a span around every call. They take a *tracer that may be nil: the
// same code then runs with tracing off, and the ratio of the two passes is
// the tracing overhead. Nothing here reaches into a package: what the
// program keeps private (the job record, the coalescer, the scheduler) shows
// up as the gap between the real handler's span and the replayed layers'.

// ---- batch: design points --------------------------------------------------

// replayPoints runs the points the way the sweep engine does — fanned over
// workers goroutines, each point pinned serial when workers > 1 — with a
// span per point whose children are a probe model.Build of the same network
// and the real experiments.RunContext.
func replayPoints(tr *tracer, parent int, cfgs []experiments.Config, workers int) ([]experiments.Result, error) {
	results := make([]experiments.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				cfg := cfgs[i]
				if workers > 1 {
					cfg.StepWorkers = 1
				}
				pid := tr.start("point", parent, i)
				tr.in("model.Build", pid, i, func() {
					mod, _ := model.Lookup(cfg.ModelName())
					fab, _, err := mod.Build(model.BuildConfig{N: cfg.N, Depth: cfg.WithDefaults().Depth})
					if err == nil {
						fab.Close()
					}
				})
				tr.in("experiments.RunContext", pid, i, func() {
					results[i], errs[i] = experiments.RunContext(context.Background(), cfg)
				})
				tr.end(pid)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// panelPoints lists the configurations a finished panel simulated, in sweep
// order: the engine's own derived seeds and rate grid, read back from its
// results rather than re-derived here.
func panelPoints(pr experiments.PanelResult) []experiments.Config {
	var cfgs []experiments.Config
	for _, name := range pr.Models {
		for _, reps := range pr.Raw[name] {
			for _, res := range reps {
				cfgs = append(cfgs, res.Cfg)
			}
		}
	}
	return cfgs
}

// samePoints checks a replay against the engine's results for the same
// configurations, by wire encoding.
func samePoints(a, b []experiments.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d replayed points, engine ran %d", len(a), len(b))
	}
	for i := range a {
		x, _ := json.Marshal(service.EncodeResult(a[i]))
		y, _ := json.Marshal(service.EncodeResult(b[i]))
		if !bytes.Equal(x, y) {
			return fmt.Errorf("point %d: replayed result differs from the engine's", i)
		}
	}
	return nil
}

// ---- serving: one /v1/runs request -----------------------------------------

// serveRig holds both sides of the serving comparison: the real in-process
// Server (its Handler is what quarcd serves) and a hand-assembled copy of
// its tiers — memory cache, disk store, journal — that the replay drives
// call by call.
type serveRig struct {
	srv   *service.Server
	cache *service.Cache
	disk  *store.Store
	jrnl  *store.Journal
	dir   string // "" when memory-only
	jobs  int
}

func newServeRig(e *env, durable bool) (*serveRig, error) {
	g := &serveRig{}
	if durable {
		dir, err := e.jan.tempDir(e.outDir, "rig-")
		if err != nil {
			return nil, err
		}
		g.dir = dir
	}
	if err := g.open(); err != nil {
		return nil, err
	}
	return g, nil
}

// open (re)builds both sides over the rig's directory; on a durable rig a
// second open is the restart: the server recovers its journals and the
// replay's store rescans its directory.
func (g *serveRig) open() error {
	cfg := service.Config{}
	g.cache = service.NewCache(64 << 20)
	if g.dir != "" {
		cfg.DataDir = filepath.Join(g.dir, "server")
		var err error
		if g.disk, err = store.Open(filepath.Join(g.dir, "replay", "results"), 1<<30); err != nil {
			return err
		}
		if g.jrnl, err = store.OpenJournal(filepath.Join(g.dir, "replay", "journal")); err != nil {
			return err
		}
	}
	var err error
	g.srv, err = service.New(cfg)
	return err
}

func (g *serveRig) close() {
	if g.srv != nil {
		g.srv.Close()
		g.srv = nil
	}
	if g.jrnl != nil {
		g.jrnl.CloseAll()
	}
}

// request sends one body down both paths under one "request" span and
// returns the two result payloads, which must be byte-identical.
func (g *serveRig) request(tr *tracer, req int, body []byte) (replayed, handled []byte, err error) {
	root := tr.start("request", -1, req)
	defer tr.end(root)

	rid := tr.start("replay", root, req)
	var rr service.RunRequest
	var cfg experiments.Config
	tr.in("service.decode_validate", rid, req, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&rr); err == nil {
			cfg, err = rr.Config()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	reps := max(rr.Replicates, 1)
	var key string
	tr.in("service.RunKey", rid, req, func() { key = service.RunKey(cfg, reps) })
	var payload []byte
	var hit bool
	tr.in("service.Cache.Get", rid, req, func() { payload, hit = g.cache.Get(key) })
	if !hit && g.disk != nil {
		tr.in("store.Get", rid, req, func() { payload, hit = g.disk.Get(key) })
		if hit {
			tr.in("service.Cache.Put", rid, req, func() { g.cache.Put(key, payload) })
		}
	}
	cached := hit
	if !hit {
		var agg experiments.Result
		var all []experiments.Result
		tr.in("experiments.RunReplicatedContext", rid, req, func() {
			agg, all, err = experiments.RunReplicatedContext(context.Background(), cfg, reps, rr.Workers, nil)
		})
		if err != nil {
			return nil, nil, err
		}
		tr.in("service.encode", rid, req, func() { payload, err = json.Marshal(service.EncodeRun(agg, all)) })
		if err != nil {
			return nil, nil, err
		}
		tr.in("service.Cache.Put", rid, req, func() { g.cache.Put(key, payload) })
		if g.disk != nil {
			tr.in("store.Put", rid, req, func() { err = g.disk.Put(key, payload) })
			if err != nil {
				return nil, nil, err
			}
		}
	}
	g.jobs++
	id := fmt.Sprintf("r%06d", g.jobs)
	if g.jrnl != nil {
		if err = g.journal(tr, rid, req, id, key, body, cached); err != nil {
			return nil, nil, err
		}
	}
	tr.in("service.respond", rid, req, func() {
		now := time.Now().UTC().Format(time.RFC3339Nano)
		_, err = json.Marshal(service.JobJSON{
			ID: id, Kind: "run", State: service.StateDone, Cached: cached, Done: reps, Total: reps,
			Created: now, Started: now, Finished: now, Request: body, Result: payload,
		})
	})
	tr.end(rid)
	if err != nil {
		return nil, nil, err
	}

	var rec *httptest.ResponseRecorder
	tr.in("service.handler", root, req, func() {
		rec = httptest.NewRecorder()
		g.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, runsURL, bytes.NewReader(body)))
	})
	if rec.Code != http.StatusOK {
		return nil, nil, fmt.Errorf("handler: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	var rep reply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return nil, nil, err
	}
	if rep.State != "done" || rep.Cached != cached {
		return nil, nil, fmt.Errorf("handler: state %q cached %v, replay cached %v", rep.State, rep.Cached, cached)
	}
	return payload, rep.Result, nil
}

// journal appends what the server journals for a run job: a header line,
// then one line per event (queued, done for a cached answer; queued, running,
// point, done for a simulated one), then the sync-and-close a terminal state
// triggers. The first append opens the file, so it is its own span name.
func (g *serveRig) journal(tr *tracer, parent, req int, id, key string, body []byte, cached bool) error {
	header, _ := json.Marshal(map[string]any{
		"journal": "quarc-job-v1", "id": id, "kind": "run", "key": key,
		"created": time.Now().UTC().Format(time.RFC3339Nano), "request": json.RawMessage(body),
	})
	events := []service.Event{{Type: "state", State: service.StateQueued}}
	if !cached {
		events = append(events,
			service.Event{Type: "state", State: service.StateRunning},
			service.Event{Type: "point", Done: 1, Total: 1, Topo: "quarc", Rate: 0.005, UnicastMean: 12.5})
	}
	events = append(events, service.Event{Type: "state", State: service.StateDone, Cached: cached})
	var err error
	tr.in("store.Journal.Append.new", parent, req, func() { err = g.jrnl.Append(id, header) })
	for _, ev := range events {
		if err != nil {
			return err
		}
		line, _ := json.Marshal(ev)
		tr.in("store.Journal.Append", parent, req, func() { err = g.jrnl.Append(id, line) })
	}
	tr.in("store.Journal.CloseJob", parent, req, func() { g.jrnl.CloseJob(id) })
	return err
}

// replayJournals times Journal.Replay over every job the rig journaled.
func (g *serveRig) replayJournals(tr *tracer) error {
	ids, err := g.jrnl.List()
	if err != nil {
		return err
	}
	for i, id := range ids {
		tr.in("store.Journal.Replay", -1, i, func() {
			var lines [][]byte
			if lines, err = g.jrnl.Replay(id); err == nil && len(lines) < 3 {
				err = fmt.Errorf("journal %s replayed %d lines", id, len(lines))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// diskBytes sums what the files under dir occupy on disk — what the payloads
// cost once each sits in its own file.
func diskBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += onDisk(info)
		}
		return nil
	})
	return total
}

// diskOverhead is what the replay's result store occupies on disk per
// payload byte it holds.
func (g *serveRig) diskOverhead() float64 {
	if g.disk == nil || g.disk.Bytes() == 0 {
		return 0
	}
	return float64(diskBytes(filepath.Join(g.dir, "replay", "results"))) / float64(g.disk.Bytes())
}

// serveReplay is the result of driving a rig through a request stream.
type serveReplay struct {
	cold, hot, read [2]int // span index ranges [from, to) of each phase
	requests        int
	diskRatio       float64 // durable rigs: disk bytes per payload byte in the result store
}

// replayServe drives cold (unique, simulated) then hot (repeated, cached)
// requests through a rig; on a durable rig it then restarts both sides and
// reads every cold body back from disk. Every request checks that the
// replayed payload and the real handler's are byte-identical.
func replayServe(e *env, tr *tracer, durable bool, cold [][]byte, hot []int) (serveReplay, error) {
	var out serveReplay
	g, err := newServeRig(e, durable)
	if err != nil {
		return out, err
	}
	defer g.close()
	n := 0
	one := func(body []byte) error {
		a, b, err := g.request(tr, n, body)
		n++
		if err == nil && !bytes.Equal(a, b) {
			err = fmt.Errorf("request %d: replayed payload differs from the handler's", n-1)
		}
		return err
	}
	out.cold[0] = tr.len()
	for _, body := range cold {
		if err := one(body); err != nil {
			return out, err
		}
	}
	out.cold[1] = tr.len()
	out.hot[0] = out.cold[1]
	for _, k := range hot {
		if err := one(cold[k%len(cold)]); err != nil {
			return out, err
		}
	}
	out.hot[1] = tr.len()
	if durable {
		g.close()
		tr.in("service.New.recover", -1, n, func() { err = g.open() })
		if err != nil {
			return out, err
		}
		out.read[0] = tr.len()
		for _, body := range cold {
			if err := one(body); err != nil {
				return out, err
			}
		}
		out.read[1] = tr.len()
		if err := g.replayJournals(tr); err != nil {
			return out, err
		}
		out.diskRatio = g.diskOverhead()
	}
	out.requests = n
	return out, nil
}

// ---- explore ---------------------------------------------------------------

// exploreReplay is one in-process explore through a cache-through evaluator
// assembled from public functions, as the daemon's executor does it.
type exploreReplay struct {
	outcome   explore.Outcome
	simulated int
	hits      int
}

func replayExplore(tr *tracer, req int, body []byte, cache *service.Cache) (exploreReplay, error) {
	var out exploreReplay
	var er service.ExploreRequest
	root := tr.start("explore", -1, req)
	defer tr.end(root)
	var spec explore.Spec
	var opts experiments.RunOpts
	var err error
	tr.in("service.decode_validate", root, req, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&er); err == nil {
			spec, opts, _, err = er.SpecOpts()
		}
	})
	if err != nil {
		return out, err
	}
	tr.in("explore.Expand", root, req, func() { _, err = spec.Expand(opts) })
	if err != nil {
		return out, err
	}
	var sims, hits atomic.Int64
	var points atomic.Int64
	eval := func(ctx context.Context, p explore.Point) (experiments.Result, bool, error) {
		i := int(points.Add(1)) - 1
		pid := tr.start("explore.point", root, i)
		defer tr.end(pid)
		var key string
		tr.in("service.RunKey", pid, i, func() { key = service.RunKey(p.Cfg, opts.Replicates) })
		var b []byte
		var ok bool
		tr.in("service.Cache.Get", pid, i, func() { b, ok = cache.Get(key) })
		if ok {
			var res experiments.Result
			var derr error
			tr.in("service.decode_cached", pid, i, func() { res, derr = decodeRun(b, p.Cfg) })
			if derr == nil {
				hits.Add(1)
				return res, true, nil
			}
		}
		var agg experiments.Result
		var all []experiments.Result
		var rerr error
		tr.in("experiments.RunReplicatedContext", pid, i, func() {
			agg, all, rerr = experiments.RunReplicatedContext(ctx, p.Cfg, opts.Replicates, 1, nil)
		})
		if rerr != nil {
			return experiments.Result{}, false, rerr
		}
		tr.in("service.encode", pid, i, func() { b, rerr = json.Marshal(service.EncodeRun(agg, all)) })
		if rerr == nil {
			tr.in("service.Cache.Put", pid, i, func() { cache.Put(key, b) })
		}
		sims.Add(1)
		return agg, false, nil
	}
	rid := tr.start("explore.Run", root, req)
	out.outcome, err = explore.Run(context.Background(), spec, opts, opts.Workers, eval, nil)
	tr.end(rid)
	if err != nil {
		return out, err
	}
	tr.in("service.encode", root, req, func() { _, err = json.Marshal(service.EncodeExplore(spec, opts, out.outcome)) })
	out.simulated, out.hits = int(sims.Load()), int(hits.Load())
	return out, err
}

// decodeRun rebuilds the measurement fields an explore needs from a cached
// run payload.
func decodeRun(b []byte, cfg experiments.Config) (experiments.Result, error) {
	var rr service.RunResult
	if err := json.Unmarshal(b, &rr); err != nil {
		return experiments.Result{}, err
	}
	j := rr.Result
	return experiments.Result{
		Cfg: cfg, UnicastMean: j.UnicastMean, UnicastCI: j.UnicastCI, UnicastCount: j.UnicastCount,
		BcastMean: j.BcastMean, BcastCount: j.BcastCount, Throughput: j.Throughput,
		Saturated: j.Saturated, Cycles: j.Cycles,
	}, nil
}

// frontObjectives are the outcome's points in objective space, as
// explore.Run feeds them to Front.
func frontObjectives(oc explore.Outcome) []explore.Objectives {
	objs := make([]explore.Objectives, len(oc.Points))
	for i, p := range oc.Points {
		c := math.Inf(1)
		if p.CostKnown {
			c = float64(p.CostSlices)
		}
		objs[i] = explore.Objectives{Latency: p.Latency, Throughput: p.Throughput, Cost: c}
	}
	return objs
}

// writeTrace dumps a replay's spans next to the results.
func writeTrace(e *env, spans []span) (string, error) {
	path := filepath.Join(e.outDir, "trace-"+e.workload+".ndjson")
	return path, writeSpans(path, spans)
}
