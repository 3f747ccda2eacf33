package service

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/traffic"
)

// MaxLatticePoints bounds the axis cross product one explore request may
// demand, before dedup and skipping: design-space searches are the daemon's
// heaviest cacheable traffic, and the cap keeps one request from expanding
// into weeks of simulation.
const MaxLatticePoints = 2048

// McastJSON is one multicast preset of an explore lattice.
type McastJSON struct {
	Frac float64 `json:"frac"`
	Size int     `json:"size"`
}

// ExploreRequest is the body of POST /v1/explore: a design-space search
// over the cross product of the axis lists, swept under shared workload
// knobs. The response is the latency/throughput/cost Pareto front over
// every expanded point, with dominated-point provenance.
type ExploreRequest struct {
	Models []string  `json:"models"`
	Ns     []int     `json:"ns"`
	Rates  []float64 `json:"rates"`
	// Depths is the buffer-depth axis: omitted means [opts.depth], and a 0
	// entry the simulator's default depth (explore.Spec.Normalised).
	Depths []int       `json:"depths,omitempty"`
	Mcast  []McastJSON `json:"mcast,omitempty"`

	MsgLen      int     `json:"msglen,omitempty"`
	Beta        float64 `json:"beta,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	HotspotBias float64 `json:"hotspot_bias,omitempty"`
	// CostWidth is the payload width (bits) the silicon-cost axis is
	// evaluated at; 0 means the paper's 32-bit reference.
	CostWidth int `json:"cost_width,omitempty"`

	Opts SweepOpts `json:"opts,omitempty"`
	// DeadlineMs bounds the whole request in milliseconds (0 = none).
	// Explores have no analytic fallback, so expiry fails the job with
	// "deadline exceeded" rather than degrading.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SpecOpts converts the request into the exploration engine's spec, in its
// normal form (explore.Spec.Normalised), and run options — names parsed,
// caps enforced — and pre-expands the lattice (the expansion is
// deterministic; execution repeats it), which is where points are judged.
// Every returned error is a client error.
func (e ExploreRequest) SpecOpts() (explore.Spec, experiments.RunOpts, explore.Expansion, error) {
	fail := func(err error) (explore.Spec, experiments.RunOpts, explore.Expansion, error) {
		return explore.Spec{}, experiments.RunOpts{}, explore.Expansion{}, err
	}
	pat, err := traffic.ParsePattern(e.Pattern)
	if err != nil {
		return fail(err)
	}
	if e.MsgLen > MaxMsgLen {
		return fail(fmt.Errorf("msglen %d exceeds the limit %d", e.MsgLen, MaxMsgLen))
	}
	if e.CostWidth < 0 {
		return fail(fmt.Errorf("cost_width %d must be non-negative", e.CostWidth))
	}
	if e.CostWidth > MaxCostWidth {
		return fail(fmt.Errorf("cost_width %d exceeds the limit %d", e.CostWidth, MaxCostWidth))
	}
	models, err := ParseModels(e.Models)
	if err != nil {
		return fail(err)
	}
	for _, n := range e.Ns {
		if n > MaxNodes {
			return fail(fmt.Errorf("n %d exceeds the limit %d", n, MaxNodes))
		}
	}
	for _, d := range e.Depths {
		if d > MaxDepth {
			return fail(fmt.Errorf("depth %d exceeds the limit %d", d, MaxDepth))
		}
	}

	spec := explore.Spec{
		Models: models,
		Ns:     append([]int(nil), e.Ns...),
		Rates:  append([]float64(nil), e.Rates...),
		Depths: append([]int(nil), e.Depths...),
		MsgLen: e.MsgLen, Beta: e.Beta,
		Pattern: pat, HotspotBias: e.HotspotBias,
		CostWidth: e.CostWidth,
	}
	for _, k := range e.Mcast {
		spec.Mcast = append(spec.Mcast, explore.McastKnob{Frac: k.Frac, Size: k.Size})
	}

	if e.Opts.Points != 0 {
		return fail(fmt.Errorf("opts.points does not apply to explore: rates are an explicit axis"))
	}
	opts, err := e.Opts.RunOpts()
	if err != nil {
		return fail(err)
	}
	spec = spec.Normalised(opts)

	raw := spec.RawPoints()
	if raw > MaxLatticePoints {
		return fail(fmt.Errorf("lattice expands to %d points, exceeding the limit %d", raw, MaxLatticePoints))
	}
	perPoint := opts.Warmup + opts.Measure + opts.Drain
	if int64(raw)*int64(opts.Replicates)*perPoint > MaxJobCycles {
		return fail(fmt.Errorf("%d lattice points x %d replicates x %d cycles exceeds the job limit %d",
			raw, opts.Replicates, perPoint, int64(MaxJobCycles)))
	}

	exp, err := spec.Expand(opts)
	if err != nil {
		return fail(err)
	}
	return spec, opts, exp, nil
}

// ExploreKey returns the canonical cache key of an exploration: a hash of
// the spec's normal form under opts (explore.Spec.Normalised, the form Expand
// runs) and the run options that change a result. So requests spelling out a
// default share a key with requests omitting it, and two requests share a
// key only if they run the same lattice. The payload echo reads the same
// form (EncodeExplore). Workers and progress callbacks are excluded: they
// never change a payload bit.
func ExploreKey(spec explore.Spec, opts experiments.RunOpts) string {
	spec = spec.Normalised(opts)
	return hashKey(struct {
		Kind                   string
		Models                 []string
		Ns                     []int
		Rates                  []float64
		Depths                 []int
		Mcast                  []explore.McastKnob
		MsgLen                 int
		Beta                   float64 `json:",omitempty"`
		Pattern                int     `json:",omitempty"`
		HotspotBias            float64 `json:",omitempty"`
		CostWidth              int
		Warmup, Measure, Drain int64
		Seed                   uint64
		Replicates             int
	}{
		Kind: "explore", Models: spec.Models, Ns: spec.Ns, Rates: spec.Rates,
		Depths: spec.Depths, Mcast: spec.Mcast, MsgLen: spec.MsgLen, Beta: spec.Beta,
		Pattern: int(spec.Pattern), HotspotBias: spec.HotspotBias,
		CostWidth: spec.CostWidth,
		Warmup:    opts.Warmup, Measure: opts.Measure, Drain: opts.Drain,
		Seed: opts.Seed, Replicates: max(opts.Replicates, 1),
	})
}

// ExplorePointJSON is one evaluated lattice point of an explore payload.
// Latency is the objective latency (0 when the point measured nothing —
// consult the embedded result's counts); cost_slices is present only for
// models with a calibrated cost model, and cost_known tells the two apart.
// Nothing here depends on how the point was computed (cache or simulation):
// the payload stays a pure function of the request, the property the result
// cache relies on.
type ExplorePointJSON struct {
	Model           string     `json:"model"`
	N               int        `json:"n"`
	Rate            float64    `json:"rate"`
	Depth           int        `json:"depth"`
	McastFrac       float64    `json:"mcast_frac,omitempty"`
	McastSize       int        `json:"mcast_size,omitempty"`
	Latency         float64    `json:"latency,omitempty"`
	Throughput      float64    `json:"throughput"`
	Saturated       bool       `json:"saturated,omitempty"`
	CostSlices      int        `json:"cost_slices,omitempty"`
	CostKnown       bool       `json:"cost_known"`
	AnalyticLatency *float64   `json:"analytic_latency,omitempty"`
	AnalyticErrPc   *float64   `json:"analytic_err_pc,omitempty"`
	OnFront         bool       `json:"on_front"`
	DominatedBy     *int       `json:"dominated_by,omitempty"`
	Result          ResultJSON `json:"result"`
}

// ExploreResultJSON is the payload of a completed explore job: the request
// echo, every lattice point in deterministic lattice order, and the Pareto
// front as sorted point indices. The echo is the normal form the cache key
// hashes, so one key has one payload; depths and mcast are omitted exactly
// when their axis is the default one ([4] and [{0 0}]).
type ExploreResultJSON struct {
	Models        []string           `json:"models"`
	Ns            []int              `json:"ns"`
	Rates         []float64          `json:"rates"`
	Depths        []int              `json:"depths,omitempty"`
	Mcast         []McastJSON        `json:"mcast,omitempty"`
	MsgLen        int                `json:"msglen"`
	Beta          float64            `json:"beta,omitempty"`
	Pattern       string             `json:"pattern,omitempty"`
	HotspotBias   float64            `json:"hotspot_bias,omitempty"`
	CostWidth     int                `json:"cost_width"`
	Replicates    int                `json:"replicates"`
	LatticePoints int                `json:"lattice_points"`
	Deduped       int                `json:"deduped,omitempty"`
	Skipped       []explore.Skip     `json:"skipped,omitempty"`
	Points        []ExplorePointJSON `json:"points"`
	Front         []int              `json:"front"`
}

// EncodeExplore converts a completed exploration to its wire form, echoing
// the spec's normal form under opts.
func EncodeExplore(spec explore.Spec, opts experiments.RunOpts, oc explore.Outcome) ExploreResultJSON {
	spec = spec.Normalised(opts)
	out := ExploreResultJSON{
		Models: spec.Models, Ns: spec.Ns, Rates: spec.Rates,
		MsgLen: spec.MsgLen, Beta: spec.Beta, HotspotBias: spec.HotspotBias,
		CostWidth:     spec.CostWidth,
		Replicates:    max(opts.Replicates, 1),
		LatticePoints: len(oc.Points),
		Deduped:       oc.Deduped,
		Skipped:       oc.Skipped,
		Front:         oc.Front,
	}
	if spec.Pattern != traffic.Uniform {
		out.Pattern = spec.Pattern.String()
	}
	def := explore.Spec{}.Normalised(experiments.RunOpts{})
	if !slices.Equal(spec.Depths, def.Depths) {
		out.Depths = spec.Depths
	}
	if !slices.Equal(spec.Mcast, def.Mcast) {
		for _, k := range spec.Mcast {
			out.Mcast = append(out.Mcast, McastJSON{Frac: k.Frac, Size: k.Size})
		}
	}
	out.Points = make([]ExplorePointJSON, len(oc.Points))
	for i, p := range oc.Points {
		pj := ExplorePointJSON{
			Model: p.Model, N: p.N, Rate: p.Rate, Depth: p.Depth,
			McastFrac: p.McastFrac, McastSize: p.McastSize,
			Throughput: p.Throughput, Saturated: p.Result.Saturated,
			CostSlices: p.CostSlices, CostKnown: p.CostKnown,
			OnFront: oc.DominatedBy[i] == -1,
			Result:  EncodeResult(p.Result),
		}
		if !math.IsInf(p.Latency, 1) {
			pj.Latency = p.Latency
		}
		if p.AnalyticOK && !math.IsInf(p.AnalyticLatency, 1) {
			v := p.AnalyticLatency
			pj.AnalyticLatency = &v
		}
		if p.AnalyticErrOK {
			v := p.AnalyticErrPc
			pj.AnalyticErrPc = &v
		}
		if d := oc.DominatedBy[i]; d >= 0 {
			dd := d
			pj.DominatedBy = &dd
		}
		out.Points[i] = pj
	}
	return out
}

// decodeRunResult reconstructs a simulation result from a cached run
// payload (the wire bytes POST /v1/runs and the explore evaluator both
// store), re-attaching the caller's configuration. ok is false when the
// bytes do not parse — the evaluator then falls back to simulating.
func decodeRunResult(b []byte, cfg experiments.Config) (experiments.Result, bool) {
	var rr RunResult
	if err := json.Unmarshal(b, &rr); err != nil {
		return experiments.Result{}, false
	}
	// As a simulated Result does, echo the workload without the execution
	// knob explore.Run may have pinned on the way in.
	cfg.StepWorkers = 0
	r := rr.Result.Result
	r.Cfg = cfg
	return r, true
}
