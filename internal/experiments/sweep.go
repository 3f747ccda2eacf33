// Parallel sweep engine: the paper's evaluation grids (Figs 9-11) are sets
// of independent simulation points — (topology, offered rate, replicate)
// triples — so regenerating a panel is embarrassingly parallel. The engine
// fans the points across a bounded worker pool, heaviest offered load first
// so the sweep does not end on a tail of saturated points, while keeping the
// output bit-for-bit identical to a serial sweep: every point derives its own
// seed from the experiment seed alone (never from scheduling order), results
// land in a slot indexed by point position, and replicate aggregation folds
// them in a fixed order. One worker is the plain sequential sweep: it draws
// the points in point order on one goroutine.
//
//quarc:poolfile bounded sweep worker pool; order-independence proven by TestSweepMatchesSerial
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"quarc/internal/model"
	"quarc/internal/rng"
	"quarc/internal/stats"
)

// PointDone describes one completed design point of a sweep. It is delivered
// to RunOpts.OnPointDone as each point finishes, so long sweeps can stream
// progress (the quarcd daemon turns these into NDJSON events).
type PointDone struct {
	Index     int    // position in the sweep's deterministic point order
	Total     int    // total points in the sweep
	Model     string // canonical registry name of the simulated model
	RateIndex int
	Replicate int
	Rate      float64
	Result    Result
}

// legacyPanelModels is the architecture pair a panel sweeps when
// PanelSpec.Models is empty — the paper's fixed quarc/spidergon comparison.
var legacyPanelModels = []string{"quarc", "spidergon"}

// sweepPoint is one independent design point of a sweep.
type sweepPoint struct {
	Cfg       Config
	Model     string // canonical registry name
	RateIndex int
	Replicate int
}

// originalModels freezes the six models that predate the registry at the
// index they held in the enum the harness once selected models through.
// PointSeed and the service layer's canonical run key fold that index in for
// these names, so their seeds and cache keys are what they have always been.
// Never reorder or extend it: a new model is keyed by name.
var originalModels = [...]string{
	"quarc", "spidergon", "quarc-chainbcast", "quarc-1queue", "mesh", "torus",
}

// OriginalModelIndex returns the frozen index of one of the six original
// models (canonical lower-case name); ok is false for every other model.
func OriginalModelIndex(model string) (int, bool) {
	for i, name := range originalModels {
		if name == model {
			return i, true
		}
	}
	return 0, false
}

// PointSeed derives the deterministic seed of a design point from the
// experiment-level base seed. Distinct (model, rate index, replicate) triples
// get statistically independent seeds, and the value depends only on the
// triple — never on worker scheduling — so parallel and serial sweeps
// simulate exactly the same systems. The six original models fold in their
// frozen index, every other model the FNV-1a hash of its canonical name.
func PointSeed(base uint64, model string, rateIndex, replicate int) uint64 {
	var id uint64
	if i, ok := OriginalModelIndex(model); ok {
		id = uint64(i)
	} else {
		h := fnv.New64a()
		h.Write([]byte(model))
		id = h.Sum64()
	}
	return rng.Derive(base, id, uint64(rateIndex), uint64(replicate))
}

// normalized fills the sweep-level defaults.
func (o RunOpts) normalized() RunOpts {
	if o.Replicates < 1 {
		o.Replicates = 1
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// FannedStepWorkers is the one rule for the intra-point fabric parallelism of
// points fanned across workers (sweeps, replicates, explore lattices): an
// explicit stepWorkers passes through; otherwise a point that fans across
// more than one worker steps serially (outer parallelism already fills the
// machine, and inner pools would oversubscribe it), while a single worker's
// point keeps 0, the fabric's auto sizing. Results do not depend on it.
func FannedStepWorkers(stepWorkers, workers int) int {
	if stepWorkers == 0 && workers > 1 {
		return 1
	}
	return stepWorkers
}

// point is the design point these options give one (model, size, workload,
// load) combination: the sweep's cycle budgets, buffer depth and base seed,
// stepped with the intra-point parallelism FannedStepWorkers picks (which
// reads Workers, so sweeps call this after normalized()).
func (o RunOpts) point(model string, n, msgLen int, beta, rate float64) Config {
	return Config{
		Model: model, N: n, MsgLen: msgLen, Beta: beta, Rate: rate,
		Warmup: o.Warmup, Measure: o.Measure, Drain: o.Drain,
		Depth: o.Depth, Seed: o.Seed, StepWorkers: FannedStepWorkers(o.StepWorkers, o.Workers),
	}
}

// Fan is the repository's one fan-out: it calls fn(i) for every i in [0, n)
// on workers goroutines (clamped to [1, n]) drawing indices off one atomic
// cursor, so a caller that writes its result into slot i gets input order back
// whatever the schedule. A cancelled ctx stops the workers from drawing
// further indices and wins over any error from fn; otherwise the first error
// in index order is returned, once every worker has stopped.
func Fan(ctx context.Context, n, workers int, fn func(i int) error) error {
	workers = max(1, min(workers, n))
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepRun executes every point through Fan, each result in its point's slot.
// onDone, if non-nil, is called with (point index, result) as each point
// completes — concurrently, from the worker goroutines. Of several failing
// points the first in point order is reported, whatever order they ran in.
func sweepRun(ctx context.Context, points []sweepPoint, workers int, onDone func(int, Result)) ([]Result, error) {
	order := drawOrder(points, workers)
	results := make([]Result, len(points))
	errs := make([]error, len(points))
	if err := Fan(ctx, len(points), workers, func(j int) error {
		i := order[j]
		results[i], errs[i] = runPointGuarded(ctx, points[i].Cfg)
		if errs[i] == nil && onDone != nil {
			onDone(i, results[i])
		}
		return nil
	}); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// drawOrder is the order a sweep's workers draw its points in. A sweep that
// fans out starts its longest points first — descending offered load × N, a
// property of the input, ties in point order — so the saturating points do
// not all land at the tail of the schedule. One worker keeps point order.
func drawOrder(points []sweepPoint, workers int) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	if workers > 1 {
		load := func(i int) float64 { return points[i].Cfg.Rate * float64(points[i].Cfg.N) }
		sort.SliceStable(order, func(a, b int) bool { return load(order[a]) > load(order[b]) })
	}
	return order
}

// runPointGuarded isolates one design point: a panic anywhere in the
// simulator fails that point with an error instead of unwinding through the
// sweep's worker goroutine and killing the whole process, so one poisoned
// configuration costs its own job, never its neighbours (or, under quarcd,
// the daemon).
func runPointGuarded(ctx context.Context, cfg Config) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point panicked: %v", r)
		}
	}()
	return RunContext(ctx, cfg)
}

// pointNotifier adapts a PointDone callback to sweepRun's (index, result)
// signature, filling in the point identity from the expanded point list.
func pointNotifier(onDone func(PointDone), points []sweepPoint) func(int, Result) {
	if onDone == nil {
		return nil
	}
	total := len(points)
	return func(i int, res Result) {
		p := points[i]
		onDone(PointDone{
			Index: i, Total: total,
			Model: p.Model, RateIndex: p.RateIndex, Replicate: p.Replicate,
			Rate: p.Cfg.Rate, Result: res,
		})
	}
}

// point is the design point a panel sweeps for one (model, rate) pair, before
// its per-replicate seed is derived.
func (spec PanelSpec) point(opts RunOpts, name string, rate float64) Config {
	cfg := opts.point(name, spec.N, spec.MsgLen, spec.Beta, rate)
	cfg.Pattern, cfg.HotspotBias = spec.Pattern, spec.HotspotBias
	cfg.McastFrac, cfg.McastSize = spec.McastFrac, spec.McastSize
	return cfg
}

// Validate applies Config.Validate to one point per swept model and explicit
// rate — the legacy pair included — through the constructor panelPoints uses.
// It runs before any rate grid is derived, so a panel without explicit rates
// is checked at rate 0 and must have a size the Quarc accepts: the derivation
// scales the Quarc's analytic capacity bound, whatever models are swept.
func (spec PanelSpec) Validate(opts RunOpts) error {
	rates := spec.Rates
	if len(rates) == 0 {
		rates = []float64{0}
	}
	for _, name := range spec.SweptModels() {
		for _, rate := range rates {
			if err := spec.point(opts, name, rate).Validate(); err != nil {
				return err
			}
		}
	}
	if len(spec.Rates) == 0 {
		if err := model.CheckSize("quarc", spec.N); err != nil {
			return fmt.Errorf("experiments: a rate grid can only be derived for a Quarc size: %w", err)
		}
	}
	return nil
}

// panelPoints expands a panel spec into its design points, ordered model-
// major, then rate, then replicate. assemblePanel relies on this layout.
func panelPoints(spec PanelSpec, opts RunOpts) ([]sweepPoint, []float64) {
	rates := spec.Rates
	if rates == nil {
		rates = rateGrid(spec, opts.Points)
	}
	models := spec.SweptModels()
	points := make([]sweepPoint, 0, len(models)*len(rates)*opts.Replicates)
	for _, name := range models {
		for ri, rate := range rates {
			for rep := 0; rep < opts.Replicates; rep++ {
				cfg := spec.point(opts, name, rate)
				cfg.Seed = PointSeed(opts.Seed, name, ri, rep)
				points = append(points, sweepPoint{
					Model: name, RateIndex: ri, Replicate: rep, Cfg: cfg,
				})
			}
		}
	}
	return points, rates
}

// aggregateReplicates folds the replicate results of one (topology, rate)
// point into a single Result. With one replicate it is the identity. With
// more, the latency means become across-replicate means and the CI fields
// become the 95% confidence half-width of those replicate means (the
// standard independent-replications estimator); percentile and throughput
// fields are averaged, counts are summed, and the point counts as saturated
// if any replicate saturated. Cfg is replicate 0's configuration; callers
// that know the experiment-level seed overwrite Cfg.Seed with it, so an
// aggregate echoes the seed that was requested, not a derived one.
func aggregateReplicates(reps []Result) Result {
	if len(reps) == 0 {
		return Result{}
	}
	if len(reps) == 1 {
		return reps[0]
	}
	// Latency metrics only exist in replicates that measured at least one
	// message of that class: a zero-count replicate's 0.0 mean is absence of
	// data, not data, and folding it in would bias the aggregate toward zero
	// (the single-run path renders such points as "-").
	collect := func(ok func(Result) bool, get func(Result) float64) []float64 {
		xs := make([]float64, 0, len(reps))
		for _, r := range reps {
			if ok(r) {
				xs = append(xs, get(r))
			}
		}
		return xs
	}
	avg := func(ok func(Result) bool, get func(Result) float64) float64 {
		m, _ := stats.MeanCI95(collect(ok, get))
		return m
	}
	hasUni := func(r Result) bool { return r.UnicastCount > 0 }
	hasBc := func(r Result) bool { return r.BcastCount > 0 }
	always := func(Result) bool { return true }
	agg := reps[0]
	agg.UnicastMean, agg.UnicastCI = stats.MeanCI95(collect(hasUni, func(r Result) float64 { return r.UnicastMean }))
	agg.BcastMean, agg.BcastCI = stats.MeanCI95(collect(hasBc, func(r Result) float64 { return r.BcastMean }))
	agg.UnicastP50 = avg(hasUni, func(r Result) float64 { return r.UnicastP50 })
	agg.UnicastP95 = avg(hasUni, func(r Result) float64 { return r.UnicastP95 })
	agg.UnicastP99 = avg(hasUni, func(r Result) float64 { return r.UnicastP99 })
	agg.BcastP50 = avg(hasBc, func(r Result) float64 { return r.BcastP50 })
	agg.BcastP95 = avg(hasBc, func(r Result) float64 { return r.BcastP95 })
	agg.BcastP99 = avg(hasBc, func(r Result) float64 { return r.BcastP99 })
	agg.BcastDelivery = avg(hasBc, func(r Result) float64 { return r.BcastDelivery })
	agg.Throughput = avg(always, func(r Result) float64 { return r.Throughput })
	agg.UnicastCount, agg.BcastCount, agg.McastCount = 0, 0, 0
	agg.Leftover, agg.Duplicates, agg.Saturated, agg.Cycles = 0, 0, false, 0
	for _, r := range reps {
		agg.UnicastCount += r.UnicastCount
		agg.BcastCount += r.BcastCount
		agg.McastCount += r.McastCount
		agg.Leftover += r.Leftover
		agg.Duplicates += r.Duplicates
		agg.Saturated = agg.Saturated || r.Saturated
		agg.Cycles += r.Cycles
	}
	return agg
}

// assemblePanel groups point results back into the panel structure. The
// grouping is pure index arithmetic over panelPoints's layout, so it is
// independent of how the points were executed — and of the order the models
// were listed in, since every model's points carry model-keyed seeds.
func assemblePanel(spec PanelSpec, opts RunOpts, rates []float64, results []Result) PanelResult {
	pr := PanelResult{
		Spec:       spec,
		Models:     spec.SweptModels(),
		RatesSwept: rates,
		Results:    map[string][]Result{},
		Raw:        map[string][][]Result{},
		Replicates: opts.Replicates,
	}
	for mi, name := range pr.Models {
		for ri := range rates {
			base := (mi*len(rates) + ri) * opts.Replicates
			reps := append([]Result(nil), results[base:base+opts.Replicates]...)
			pr.Raw[name] = append(pr.Raw[name], reps)
			res := aggregateReplicates(reps)
			// Aggregated rows echo the sweep-level seed the caller chose;
			// the per-replicate derived seeds stay visible in Raw.
			res.Cfg.Seed = opts.Seed
			pr.Results[name] = append(pr.Results[name], res)
		}
	}
	return pr
}

// RunPanel sweeps one panel for every model in PanelSpec.Models (the legacy
// quarc/spidergon pair when empty), fanning the independent (model, rate,
// replicate) points across RunOpts.Workers goroutines. For a fixed
// RunOpts.Seed the result is bit-identical at any worker count.
func RunPanel(spec PanelSpec, opts RunOpts) (PanelResult, error) {
	return RunPanelContext(context.Background(), spec, opts)
}

// RunPanelContext is RunPanel with cooperative cancellation: once ctx is
// cancelled no further points start, points in flight abort promptly, and
// ctx.Err() is returned. Neither the context nor RunOpts.OnPointDone ever
// changes the results.
func RunPanelContext(ctx context.Context, spec PanelSpec, opts RunOpts) (PanelResult, error) {
	opts = opts.normalized()
	if err := spec.Validate(opts); err != nil {
		return PanelResult{Spec: spec}, err
	}
	points, rates := panelPoints(spec, opts)
	results, err := sweepRun(ctx, points, opts.Workers, pointNotifier(opts.OnPointDone, points))
	if err != nil {
		return PanelResult{Spec: spec, RatesSwept: rates}, err
	}
	return assemblePanel(spec, opts, rates, results), nil
}

// PanelPointCount returns the number of design points RunPanel will execute
// for this spec and options — what a sweep's progress is measured against.
func PanelPointCount(spec PanelSpec, opts RunOpts) int {
	opts = opts.normalized()
	points, _ := panelPoints(spec, opts)
	return len(points)
}

// RunReplicated executes one configuration replicates times with independent
// derived seeds, in parallel across workers (0 means GOMAXPROCS), and
// returns the aggregate alongside the per-replicate results. With one
// replicate it is exactly Run(cfg): the seed is used as given.
func RunReplicated(cfg Config, replicates, workers int) (Result, []Result, error) {
	return RunReplicatedContext(context.Background(), cfg, replicates, workers, nil)
}

// RunReplicatedContext is RunReplicated with cooperative cancellation and an
// optional per-replicate completion callback (concurrent, like a sweep's).
func RunReplicatedContext(ctx context.Context, cfg Config, replicates, workers int, onDone func(PointDone)) (Result, []Result, error) {
	if replicates < 1 {
		replicates = 1
	}
	name := cfg.ModelName()
	if replicates == 1 {
		res, err := runPointGuarded(ctx, cfg)
		if err == nil && onDone != nil {
			onDone(PointDone{Index: 0, Total: 1, Model: name, Rate: cfg.Rate, Result: res})
		}
		return res, []Result{res}, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.StepWorkers = FannedStepWorkers(cfg.StepWorkers, workers)
	points := make([]sweepPoint, replicates)
	for rep := range points {
		c := cfg
		c.Seed = PointSeed(cfg.Seed, name, 0, rep)
		points[rep] = sweepPoint{Cfg: c, Model: name, Replicate: rep}
	}
	results, err := sweepRun(ctx, points, workers, pointNotifier(onDone, points))
	if err != nil {
		return Result{}, nil, err
	}
	agg := aggregateReplicates(results)
	agg.Cfg.Seed = cfg.Seed // echo the requested seed, not replicate 0's derived one
	return agg, results, nil
}
