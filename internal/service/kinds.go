package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/explore"
)

// work is the parsed, validated request a job executes. Everything the
// serving path needs to know about a job's kind is one of these answers, so
// adding a kind is one implementation plus one row of the kinds table.
type work interface {
	// run simulates the work to its canonical payload bytes, reporting
	// progress through j and counting through s.
	run(ctx context.Context, s *Server, j *Job) ([]byte, error)
	// class is the scheduling class. It is asked only when the job is about
	// to queue: classifying a run evaluates the closed-form model, which a
	// request answered from the cache or an in-flight twin must not pay for.
	class() Class
	// degraded is the instant analytic stand-in served when the exact answer
	// cannot be produced in time; ok is false for work that has none.
	degraded(reason string) (RunResult, bool)
}

// request is what every wire request type offers the parser: its canonical
// cache key, the work that answers it, and its deadline_ms budget. The
// deadline rides beside the work, never in the key — identical
// configurations share cache entries whatever their deadlines.
type request interface {
	plan() (key string, w work, deadlineMs int64, err error)
}

// kind is one row of the job-kind table: wire name, submission route, body
// parser. The submit handler and boot recovery both go through the table, so
// a recovered job is built exactly like a fresh one.
type kind struct {
	name, route string
	parse       func(body []byte) (key string, w work, deadline time.Duration, err error)
}

var kinds = []kind{
	{"run", "/v1/runs", parse[RunRequest]},
	{"panel", "/v1/panels", parse[PanelRequest]},
	{"explore", "/v1/explore", parse[ExploreRequest]},
}

// parseKind parses a body of the named kind: boot recovery's way into the
// table (the submit handler holds its row already).
func parseKind(name string, body []byte) (string, work, time.Duration, error) {
	for _, k := range kinds {
		if k.name == name {
			return k.parse(body)
		}
	}
	return "", nil, 0, fmt.Errorf("unknown job kind %q", name)
}

// parse strictly decodes one request body — unknown fields and trailing data
// are errors — and plans it. Every returned error is a client error.
func parse[T request](body []byte) (string, work, time.Duration, error) {
	var req T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", nil, 0, fmt.Errorf("decode body: %w", err)
	}
	if dec.More() {
		return "", nil, 0, errors.New("decode body: trailing data after the request object")
	}
	key, w, ms, err := req.plan()
	if err != nil {
		return "", nil, 0, err
	}
	if ms < 0 {
		return "", nil, 0, fmt.Errorf("deadline_ms %d must be non-negative", ms)
	}
	return key, w, time.Duration(ms) * time.Millisecond, nil
}

type runWork struct {
	cfg        experiments.Config
	replicates int
	workers    int
}

func (r RunRequest) plan() (string, work, int64, error) {
	cfg, err := r.Config()
	if err != nil {
		return "", nil, 0, err
	}
	w := &runWork{cfg: cfg, replicates: r.replicates(), workers: r.Workers}
	return RunKey(cfg, w.replicates), w, r.DeadlineMs, nil
}

func (w *runWork) run(ctx context.Context, s *Server, j *Job) ([]byte, error) {
	j.setTotal(w.replicates)
	_, payload, err := s.simulateRun(ctx, w.cfg, w.replicates, w.workers,
		func(pd experiments.PointDone) { j.pointDone(pd, false) })
	return payload, err
}

func (w *runWork) class() Class { return classifyRun(w.cfg, w.replicates) }

func (w *runWork) degraded(reason string) (RunResult, bool) {
	return EncodeDegradedRun(w.cfg, reason)
}

// batchWork is the class and (absent) degraded answer of the kinds that sweep
// many points by construction: always batch, and no closed form stands in for
// a whole sweep, so past its deadline such a job fails with the reason.
type batchWork struct{}

func (batchWork) class() Class                      { return ClassBatch }
func (batchWork) degraded(string) (RunResult, bool) { return RunResult{}, false }

type panelWork struct {
	batchWork
	spec experiments.PanelSpec
	opts experiments.RunOpts
}

func (p PanelRequest) plan() (string, work, int64, error) {
	spec, opts, err := p.SpecOpts()
	if err != nil {
		return "", nil, 0, err
	}
	return PanelKey(spec, opts), &panelWork{spec: spec, opts: opts}, p.DeadlineMs, nil
}

func (w *panelWork) run(ctx context.Context, s *Server, j *Job) ([]byte, error) {
	opts := w.opts
	j.setTotal(experiments.PanelPointCount(w.spec, opts))
	opts.OnPointDone = func(pd experiments.PointDone) {
		j.pointDone(pd, false)
		s.countPoint(pd)
	}
	pr, err := experiments.RunPanelContext(ctx, w.spec, opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(EncodePanel(pr))
}

type exploreWork struct {
	batchWork
	spec explore.Spec
	opts experiments.RunOpts
	// points and deduped are the validation-time expansion's lattice size and
	// duplicate count (the expansion is deterministic, so execution re-derives
	// the identical lattice).
	points  int
	deduped int
}

func (e ExploreRequest) plan() (string, work, int64, error) {
	spec, opts, exp, err := e.SpecOpts()
	if err != nil {
		return "", nil, 0, err
	}
	w := &exploreWork{spec: spec, opts: opts, points: len(exp.Points), deduped: exp.Deduped}
	return ExploreKey(spec, opts), w, e.DeadlineMs, nil
}

// run fans the lattice through a cache-through evaluator: each point is
// content-addressed under the exact run key POST /v1/runs would use for the
// same configuration, so explore points, single runs and overlapping explores
// all share cache entries — including durable ones from before a restart. A
// probe hit re-attaches the point's configuration to the cached bytes; a miss
// simulates and stores the run payload for the next request of either kind.
func (w *exploreWork) run(ctx context.Context, s *Server, j *Job) ([]byte, error) {
	j.setTotal(w.points)
	s.metrics.explorePointsExpanded.Add(uint64(w.points))
	s.metrics.explorePointsDeduped.Add(uint64(w.deduped))
	eval := func(ctx context.Context, p explore.Point) (experiments.Result, bool, error) {
		key := RunKey(p.Cfg, w.opts.Replicates)
		if b, ok := s.tier.probe(key); ok {
			if res, ok := decodeRunResult(b, p.Cfg); ok {
				s.metrics.explorePointsCacheHit.Add(1)
				return res, true, nil
			}
		}
		agg, payload, err := s.simulateRun(ctx, p.Cfg, w.opts.Replicates, 1, nil)
		if err != nil {
			return experiments.Result{}, false, err
		}
		s.tier.put(key, payload)
		return agg, false, nil
	}
	oc, err := explore.Run(ctx, w.spec, w.opts, w.opts.Workers, eval,
		func(i int, p explore.Point, res experiments.Result, cached bool) {
			j.pointDone(experiments.PointDone{Index: i, Total: w.points, Model: p.Model, Rate: p.Rate, Result: res}, cached)
		})
	if err != nil {
		return nil, err
	}
	return json.Marshal(EncodeExplore(w.spec, w.opts, oc))
}

// countPoint is the one hook that counts simulated work, called per completed
// design point whatever kind of job simulated it.
func (s *Server) countPoint(pd experiments.PointDone) {
	s.metrics.pointsSim.Add(1)
	s.metrics.cyclesSim.Add(uint64(pd.Result.Cycles))
}

// simulateRun is the package's one replicated simulation and its encoding:
// run jobs and explore cache misses both end here. onPoint (may be nil)
// observes each completed replicate after it has been counted.
func (s *Server) simulateRun(ctx context.Context, cfg experiments.Config, replicates, workers int,
	onPoint func(experiments.PointDone)) (experiments.Result, []byte, error) {
	agg, reps, err := experiments.RunReplicatedContext(ctx, cfg, replicates, workers, func(pd experiments.PointDone) {
		s.countPoint(pd)
		if onPoint != nil {
			onPoint(pd)
		}
	})
	if err != nil {
		return experiments.Result{}, nil, err
	}
	payload, err := json.Marshal(EncodeRun(agg, reps))
	return agg, payload, err
}
