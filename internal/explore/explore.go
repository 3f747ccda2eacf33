package explore

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"quarc/internal/analytic"
	"quarc/internal/cost"
	"quarc/internal/experiments"
	"quarc/internal/model"
	"quarc/internal/traffic"
)

// McastKnob is one multicast preset of the lattice: Frac of the
// non-broadcast messages become Size-target multicasts. The zero value is
// the unicast/broadcast-only workload.
type McastKnob struct {
	Frac float64
	Size int
}

// Spec is a design-space exploration request: the cross product of the axis
// slices, sharing the scalar workload knobs. Empty Depths means the single
// simulator-default depth; empty Mcast means the single multicast-free
// workload.
type Spec struct {
	Models []string
	Ns     []int
	Rates  []float64
	Depths []int
	Mcast  []McastKnob

	MsgLen      int
	Beta        float64
	Pattern     traffic.Pattern
	HotspotBias float64

	// CostWidth is the payload width (bits) the silicon-cost axis is
	// evaluated at; 0 means the paper's 32-bit reference.
	CostWidth int
}

// CostWidthBits returns the effective cost-axis payload width: CostWidth,
// or the paper's 32-bit reference when it is 0.
func (s Spec) CostWidthBits() int {
	if s.CostWidth == 0 {
		return 32
	}
	return s.CostWidth
}

// RawPoints is the axis cross product before validation, dedup and
// skipping — the number a size cap should be checked against, computable
// without expanding anything.
func (s Spec) RawPoints() int {
	depths, mcast := len(s.Depths), len(s.Mcast)
	if depths == 0 {
		depths = 1
	}
	if mcast == 0 {
		mcast = 1
	}
	return len(s.Models) * len(s.Ns) * len(s.Rates) * depths * mcast
}

// Point is one lattice point: the axis coordinates plus the normalised
// simulator configuration they expand to.
type Point struct {
	Model     string
	N         int
	Rate      float64
	Depth     int // effective buffer depth (default applied)
	McastFrac float64
	McastSize int
	Cfg       experiments.Config
}

// Skip records a (model, axis-combination) the expansion dropped with the
// reason — an invalid size for the model, or a multicast knob the size
// cannot honour. Skips are part of the deterministic outcome, not errors: a
// cross-product lattice legitimately pairs square-only meshes with ring
// sizes.
type Skip struct {
	Model  string
	N      int
	Reason string
}

// Expansion is the deterministic result of expanding a Spec: the valid
// points in lattice order (model-major, then N, rate, depth, mcast), the
// skipped combinations, and how many duplicate points collapsed.
type Expansion struct {
	Points  []Point
	Skipped []Skip
	Deduped int
}

// Expand validates the axes and expands the lattice. Axis values that make
// the whole request nonsensical (unknown model, non-positive N or rate,
// negative depth, malformed multicast knob) are errors; combinations that
// are invalid only for a particular model or size are skipped with a
// recorded reason. opts supplies the per-point cycle budgets and seed.
func (s Spec) Expand(opts experiments.RunOpts) (Expansion, error) {
	if len(s.Models) == 0 || len(s.Ns) == 0 || len(s.Rates) == 0 {
		return Expansion{}, fmt.Errorf("explore: empty lattice (0 points): models, ns and rates must each have at least one value")
	}
	for _, m := range s.Models {
		if _, ok := model.Lookup(m); !ok {
			return Expansion{}, fmt.Errorf("explore: unknown model %q", m)
		}
	}
	for _, n := range s.Ns {
		if n <= 0 {
			return Expansion{}, fmt.Errorf("explore: n %d must be positive", n)
		}
	}
	for _, r := range s.Rates {
		if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			return Expansion{}, fmt.Errorf("explore: rate %v must be a positive finite offered load", r)
		}
	}
	for _, d := range s.Depths {
		if d < 0 {
			return Expansion{}, fmt.Errorf("explore: depth %d must be non-negative", d)
		}
	}
	for _, k := range s.Mcast {
		if k.Frac < 0 || k.Frac > 1 {
			return Expansion{}, fmt.Errorf("explore: mcast frac %v outside [0,1]", k.Frac)
		}
		if k.Frac == 0 && k.Size != 0 {
			return Expansion{}, fmt.Errorf("explore: mcast size %d without a fraction", k.Size)
		}
		if k.Frac > 0 && k.Size < 2 {
			return Expansion{}, fmt.Errorf("explore: mcast size %d must be at least 2", k.Size)
		}
	}
	depths := s.Depths
	if len(depths) == 0 {
		depths = []int{opts.Depth}
	}
	mcast := s.Mcast
	if len(mcast) == 0 {
		mcast = []McastKnob{{}}
	}

	var exp Expansion
	seen := make(map[experiments.Config]bool)
	skipSeen := make(map[Skip]bool)
	skip := func(m string, n int, reason string) {
		k := Skip{Model: m, N: n, Reason: reason}
		if !skipSeen[k] {
			skipSeen[k] = true
			exp.Skipped = append(exp.Skipped, k)
		}
	}
	for _, m := range s.Models {
		for _, n := range s.Ns {
			for _, rate := range s.Rates {
				for _, depth := range depths {
					for _, k := range mcast {
						cfg := experiments.Config{
							Model: m, N: n, MsgLen: s.MsgLen, Beta: s.Beta,
							Rate: rate, Pattern: s.Pattern, HotspotBias: s.HotspotBias,
							McastFrac: k.Frac, McastSize: k.Size, Depth: depth,
							Warmup: opts.Warmup, Measure: opts.Measure, Drain: opts.Drain,
							Seed: opts.Seed, StepWorkers: opts.StepWorkers,
						}.WithDefaults()
						if err := cfg.Validate(); err != nil {
							skip(m, n, err.Error())
							continue
						}
						if seen[cfg] {
							exp.Deduped++
							continue
						}
						seen[cfg] = true
						exp.Points = append(exp.Points, Point{
							Model: cfg.ModelName(), N: n, Rate: rate, Depth: cfg.Depth,
							McastFrac: k.Frac, McastSize: k.Size, Cfg: cfg,
						})
					}
				}
			}
		}
	}
	if len(exp.Points) == 0 {
		return Expansion{}, fmt.Errorf("explore: empty lattice (0 valid points after %d skips; first: %s)",
			len(exp.Skipped), exp.Skipped[0].Reason)
	}
	return exp, nil
}

// pureUnicast reports whether the point's workload is the one the
// analytical model describes: uniform unicast traffic with no collectives.
func (p Point) pureUnicast() bool {
	return p.Cfg.Pattern == traffic.Uniform && p.Cfg.Beta == 0 &&
		p.Cfg.McastFrac == 0 && p.Cfg.HotspotBias == 0
}

// PointOutcome is one evaluated lattice point: the measurement, the
// objective coordinates, the silicon-cost axis, and the analytic prediction
// where the closed-form model applies.
type PointOutcome struct {
	Point
	Result experiments.Result
	// Cached reports whether the evaluator answered from a cache instead of
	// simulating. It is execution provenance, not part of the point's value:
	// canonical result payloads must never encode it.
	Cached bool

	// Latency is the point's objective latency: the mean unicast latency
	// when unicasts were measured, else the mean collective completion
	// latency, else +Inf (nothing measured).
	Latency    float64
	Throughput float64

	// CostSlices is the silicon cost of the whole network (per-switch slices
	// x N) at the spec's cost width. CostKnown is false for models without a
	// calibrated switch model; such points carry Cost = +Inf in objective
	// space — excluded from the cost axis, not dropped.
	CostSlices int
	CostKnown  bool

	// AnalyticLatency is the closed-form mean-latency prediction for this
	// (model, N, rate) under uniform unicast traffic; AnalyticOK reports
	// whether the model covers this network at all. AnalyticErrPc is the
	// signed analytic-vs-simulated error in percent, reported only when the
	// prediction is finite, the workload is pure uniform unicast, and the
	// simulation measured unicast latencies.
	AnalyticLatency float64
	AnalyticOK      bool
	AnalyticErrPc   float64
	AnalyticErrOK   bool
}

// Outcome is a completed exploration: every point in lattice order, the
// Pareto front (sorted point indices) and the dominated-point provenance.
type Outcome struct {
	Points []PointOutcome
	// Front lists the indices (into Points) of the latency/throughput/cost
	// Pareto-optimal points, sorted ascending.
	Front []int
	// DominatedBy[i] is the smallest front index dominating point i, or -1
	// for front members.
	DominatedBy []int
	Skipped     []Skip
	Deduped     int
}

// Evaluator produces the measurement of one lattice point, reporting
// whether it came from a cache. The service layer injects its
// content-addressed result cache here; cmd/quarcexplore simulates directly.
type Evaluator func(ctx context.Context, p Point) (experiments.Result, bool, error)

// OnPoint observes one completed point evaluation: its index in the
// expansion's lattice order, the point, the result and whether it was
// cached. Called concurrently from evaluation workers.
type OnPoint func(i int, p Point, res experiments.Result, cached bool)

// objectives derives a point's objective coordinates from its measurement
// and cost axis.
func objectives(o PointOutcome) Objectives {
	lat := math.Inf(1)
	switch {
	case o.Result.UnicastCount > 0:
		lat = o.Result.UnicastMean
	case o.Result.BcastCount > 0:
		lat = o.Result.BcastMean
	}
	c := math.Inf(1)
	if o.CostKnown {
		c = float64(o.CostSlices)
	}
	return Objectives{Latency: lat, Throughput: o.Result.Throughput, Cost: c}
}

// prediction is the closed-form model's verdict on one lattice point; ok is
// false where the model does not cover the network.
type prediction struct {
	analytic.Prediction
	ok bool
}

// evalOrder returns the point indices sorted most-promising-first: ascending
// analytic mean-latency prediction (unknown and saturated predictions last),
// ties broken by lattice order. Cancelling an exploration mid-flight
// therefore still leaves the likely front members evaluated. The per-point
// predictions it ranked by come back too, in lattice order, for Run to
// annotate outcomes with; the model sees only (model, N, message length,
// rate), so the points along the depth and multicast axes share one call.
func evalOrder(points []Point) ([]int, []prediction) {
	type workload struct {
		model     string
		n, msgLen int
		rate      float64
	}
	distinct := make(map[workload]prediction)
	preds := make([]prediction, len(points))
	rank := make([]float64, len(points))
	for i, p := range points {
		w := workload{p.Model, p.N, p.Cfg.MsgLen, p.Rate}
		pred, seen := distinct[w]
		if !seen {
			pred.Prediction, pred.ok = analytic.ForModel(w.model, w.n, w.msgLen, w.rate)
			distinct[w] = pred
		}
		preds[i] = pred
		rank[i] = math.Inf(1)
		if pred.ok {
			rank[i] = pred.MeanLatency
		}
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := rank[order[a]], rank[order[b]]
		if ra != rb {
			// A NaN-free total order: +Inf ties fall through to lattice order.
			return ra < rb
		}
		return order[a] < order[b]
	})
	return order, preds
}

// Run expands the spec and evaluates every point through eval, fanning the
// evaluations across workers (experiments.Fan) in analytic-promise order, then
// assembles the Pareto front. workers < 1 means runtime.GOMAXPROCS(0), as
// RunOpts.Workers does for sweeps; the Outcome does not depend on it. When
// the points do fan out (more than one worker), a point that leaves its
// intra-fabric parallelism to the simulator (Cfg.StepWorkers 0) reaches eval
// pinned to serial stepping — the sweep engine's rule: the outer pool already
// fills the machine. The pin is execution-only: it is outside the run key,
// and the Outcome and onPoint carry the point as expanded. A cancelled ctx
// stops scheduling new points and returns ctx.Err(), and of several failing
// points the first in evaluation order is reported; the deterministic Outcome
// is only returned on full completion, so cached payloads are always pure
// functions of the spec.
func Run(ctx context.Context, spec Spec, opts experiments.RunOpts, workers int, eval Evaluator, onPoint OnPoint) (Outcome, error) {
	exp, err := spec.Expand(opts)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Skipped: exp.Skipped, Deduped: exp.Deduped}
	out.Points = make([]PointOutcome, len(exp.Points))

	order, preds := evalOrder(exp.Points)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(order))
	err = experiments.Fan(ctx, len(order), workers, func(oi int) error {
		i := order[oi]
		p := exp.Points[i]
		pinned := p
		if workers > 1 && pinned.Cfg.StepWorkers == 0 {
			pinned.Cfg.StepWorkers = 1
		}
		res, cached, err := eval(ctx, pinned)
		if err != nil {
			return err
		}
		out.Points[i] = PointOutcome{Point: p, Result: res, Cached: cached}
		if onPoint != nil {
			onPoint(i, p, res, cached)
		}
		return nil
	})
	if err != nil {
		return Outcome{}, err
	}

	width := spec.CostWidthBits()
	objs := make([]Objectives, len(out.Points))
	for i := range out.Points {
		o := &out.Points[i]
		o.CostSlices, o.CostKnown = cost.NetworkSlices(o.Model, o.N, width)
		if pred := preds[i]; pred.ok {
			o.AnalyticOK = true
			o.AnalyticLatency = pred.MeanLatency
			if !math.IsInf(pred.MeanLatency, 1) && o.pureUnicast() && o.Result.UnicastCount > 0 && o.Result.UnicastMean > 0 {
				o.AnalyticErrPc = 100 * (pred.MeanLatency - o.Result.UnicastMean) / o.Result.UnicastMean
				o.AnalyticErrOK = true
			}
		}
		lat := objectives(*o)
		o.Latency, o.Throughput = lat.Latency, lat.Throughput
		objs[i] = lat
	}
	out.Front, out.DominatedBy = Front(objs)
	return out, nil
}
