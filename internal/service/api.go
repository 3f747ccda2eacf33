// Package service turns the simulator into a long-running
// simulation-as-a-service daemon: a stdlib-only JSON HTTP API that accepts
// single-run, figure-panel and design-space exploration jobs, executes them
// on a bounded scheduler (panels over the parallel sweep engine, explores
// point by point through the per-point result cache), caches results
// content-addressed by a canonical request hash, streams per-point progress
// as NDJSON, and exposes operational metrics as one table of series.
// cmd/quarcd wraps it in a process; cmd/quarcload drives it under load.
//
// This file defines the wire schema. The same encoding types are used by the
// CLIs' -json output, so a result printed by quarcsim and a result returned
// by quarcd are byte-compatible.
package service

import (
	"fmt"
	"math"
	"strings"

	"quarc/internal/analytic"
	"quarc/internal/experiments"
	"quarc/internal/model"
	"quarc/internal/traffic"
)

// Request guardrails: a serving daemon must bound the work a single request
// can demand. The caps are generous for the paper's configurations (N <= 64,
// tens of thousands of cycles) while keeping one request from monopolising
// the process.
const (
	MaxNodes  = 4096
	MaxMsgLen = 4096
	// MaxCostWidth bounds explore's cost-axis width (bits): a width near
	// the int range overflows the cost model and flips the Pareto front.
	MaxCostWidth = 4096
	// MaxDepth bounds the flits of one lane buffer. A fabric's slots are
	// allocated at once, N x lanes x depth of them, so an unbounded depth
	// asks for more memory than any host has, and a failed allocation that
	// size is fatal to the process, not a recoverable panic.
	MaxDepth      = 256
	MaxReplicates = 256
	MaxWorkers    = 256
	MaxRatePoints = 256
	// MaxTotalCycles bounds warmup+measure+drain of one configuration.
	MaxTotalCycles = 500_000_000
	// MaxJobCycles bounds a whole job's simulated work — design points times
	// per-point cycles — so maxed-out individual knobs cannot be combined
	// into a request that wedges an executor for weeks.
	MaxJobCycles = 4_000_000_000
)

// ParseModel validates a wire-format model name against the registry ("",
// the default, means quarc) and returns its canonical lower-case form. The
// model vocabulary is owned by internal/model: anything registered there is
// a valid wire name, with no list to maintain here.
func ParseModel(name string) (string, error) {
	if name == "" {
		return "quarc", nil
	}
	name = strings.ToLower(name)
	if _, ok := model.Lookup(name); !ok {
		return "", fmt.Errorf("unknown model %q (available: %s)",
			name, strings.Join(model.Names(), ", "))
	}
	return name, nil
}

// ModelJSON is one entry of GET /v1/models (and quarcsim -list-models).
type ModelJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	ExampleN    int    `json:"example_n"`
}

// Models lists the registered models in wire form, sorted by name.
func Models() []ModelJSON {
	all := model.All()
	out := make([]ModelJSON, 0, len(all))
	for _, m := range all {
		out = append(out, ModelJSON{Name: m.Name, Description: m.Description, ExampleN: m.ExampleN})
	}
	return out
}

// RunRequest is the body of POST /v1/runs: one simulation configuration,
// optionally replicated. Zero fields take the simulator's defaults.
//
// Every field here, in PanelRequest and in ExploreRequest has a cache-key
// fate in TestWireFieldsDecideKeyFate: changing it changes the key its kind
// parses to, leaves the key alone (an execution-only knob), or is refused.
// Add a field and that test fails until you decide which.
type RunRequest struct {
	// Topo is the model's wire name: any name registered with
	// internal/model is accepted (GET /v1/models enumerates them).
	Topo        string  `json:"topo,omitempty"`
	N           int     `json:"n"`
	MsgLen      int     `json:"msglen,omitempty"`
	Beta        float64 `json:"beta,omitempty"`
	Rate        float64 `json:"rate"`
	Pattern     string  `json:"pattern,omitempty"`
	HotspotBias float64 `json:"hotspot_bias,omitempty"`
	// BurstMeanOn/BurstMeanOff switch the workload to the two-state bursty
	// source: mean burst and silence lengths in cycles (both together).
	// Rate stays the long-run mean offered load.
	BurstMeanOn  float64 `json:"burst_mean_on,omitempty"`
	BurstMeanOff float64 `json:"burst_mean_off,omitempty"`
	// McastFrac sends that fraction of the non-broadcast messages as
	// McastSize-target multicasts (both together; see the simulator docs).
	McastFrac  float64 `json:"mcast_frac,omitempty"`
	McastSize  int     `json:"mcast_size,omitempty"`
	Depth      int     `json:"depth,omitempty"`
	Warmup     int64   `json:"warmup,omitempty"`
	Measure    int64   `json:"measure,omitempty"`
	Drain      int64   `json:"drain,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Replicates int     `json:"replicates,omitempty"`
	// Workers sizes the replicate pool; wall-clock only, never the result.
	Workers int `json:"workers,omitempty"`
	// StepWorkers sizes the intra-point fabric worker pool (0 = automatic;
	// 1 = serial). Like workers it only changes wall-clock time, never the
	// result, and stays out of the canonical cache key.
	StepWorkers int `json:"step_workers,omitempty"`
	// DeadlineMs bounds the whole request, queueing included, in
	// milliseconds (0 = none). On expiry an analyzable run is answered
	// instantly from the closed-form analytic model with `degraded: true`
	// and the validation suite's error band instead of an error. Like
	// workers it stays out of the canonical cache key.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Config converts the request to a normalised simulator configuration. Whether
// the design point is simulable is experiments.Config.Validate's call alone;
// this layer only parses names and enforces the guardrail caps.
func (r RunRequest) Config() (experiments.Config, error) {
	name, err := ParseModel(r.Topo)
	if err != nil {
		return experiments.Config{}, err
	}
	pat, err := traffic.ParsePattern(r.Pattern)
	if err != nil {
		return experiments.Config{}, err
	}
	cfg := experiments.Config{
		Model: name, N: r.N, MsgLen: r.MsgLen, Beta: r.Beta, Rate: r.Rate,
		Pattern: pat, HotspotBias: r.HotspotBias,
		BurstMeanOn: r.BurstMeanOn, BurstMeanOff: r.BurstMeanOff,
		McastFrac: r.McastFrac, McastSize: r.McastSize, Depth: r.Depth,
		Warmup: r.Warmup, Measure: r.Measure, Drain: r.Drain, Seed: r.Seed,
		StepWorkers: r.StepWorkers,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return experiments.Config{}, err
	}
	switch {
	case cfg.N > MaxNodes:
		return experiments.Config{}, fmt.Errorf("n %d exceeds the limit %d", cfg.N, MaxNodes)
	case cfg.MsgLen > MaxMsgLen:
		return experiments.Config{}, fmt.Errorf("msglen %d exceeds the limit %d", cfg.MsgLen, MaxMsgLen)
	case cfg.Depth > MaxDepth:
		return experiments.Config{}, fmt.Errorf("depth %d exceeds the limit %d", cfg.Depth, MaxDepth)
	case cyclesOver(cfg.Warmup, cfg.Measure, cfg.Drain):
		return experiments.Config{}, fmt.Errorf("warmup+measure+drain exceeds the limit %d", MaxTotalCycles)
	case r.Replicates < 0 || r.Replicates > MaxReplicates:
		return experiments.Config{}, fmt.Errorf("replicates %d outside [0,%d]", r.Replicates, MaxReplicates)
	case r.Workers < 0 || r.Workers > MaxWorkers:
		return experiments.Config{}, fmt.Errorf("workers %d outside [0,%d]", r.Workers, MaxWorkers)
	case r.StepWorkers < 0 || r.StepWorkers > MaxWorkers:
		return experiments.Config{}, fmt.Errorf("step_workers %d outside [0,%d]", r.StepWorkers, MaxWorkers)
	case int64(r.replicates())*(cfg.Warmup+cfg.Measure+cfg.Drain) > MaxJobCycles:
		return experiments.Config{}, fmt.Errorf("replicates x cycles exceeds the job limit %d", int64(MaxJobCycles))
	}
	return cfg, nil
}

// cyclesOver reports whether three cycle budgets exceed MaxTotalCycles. Each
// is capped before they are summed: three budgets near 2⁶³ would otherwise
// wrap the sum negative and pass.
func cyclesOver(warmup, measure, drain int64) bool {
	return max(warmup, measure, drain) > MaxTotalCycles || warmup+measure+drain > MaxTotalCycles
}

// replicates returns the effective replicate count.
func (r RunRequest) replicates() int {
	if r.Replicates < 1 {
		return 1
	}
	return r.Replicates
}

// SweepOpts is the wire form of experiments.RunOpts (minus the worker count's
// effect on results: workers only changes wall-clock time). It nests inside
// both PanelRequest and ExploreRequest, so each field's cache-key fate must
// hold for PanelKey and ExploreKey alike.
type SweepOpts struct {
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	Drain   int64 `json:"drain,omitempty"`
	// Depth is hashed under its own name by PanelKey and folded into the
	// normalised Depths axis by ExploreKey.
	Depth int    `json:"depth,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Points sizes the implicit rate grid of a panel sweep; explore rejects
	// it at the wire boundary (rates are an explicit axis there), so it is
	// rightly absent from ExploreKey.
	Points     int `json:"points,omitempty"`
	Replicates int `json:"replicates,omitempty"`
	// Workers sizes the pool a panel's or an explore's points fan across; 0
	// means GOMAXPROCS for both. Like StepWorkers, wall-clock only, never
	// the result.
	Workers     int `json:"workers,omitempty"`
	StepWorkers int `json:"step_workers,omitempty"`
}

// RunOpts checks the options against the request guardrail caps and converts
// them to the sweep engine's form. Zero fields take DefaultOpts values. It is
// the one conversion behind both /v1/panels and /v1/explore, so a knob is
// capped and carried identically on either endpoint; whether the budgets make
// a simulable point is decided with the points (experiments.Config.Validate).
func (o SweepOpts) RunOpts() (experiments.RunOpts, error) {
	def := experiments.DefaultOpts()
	opts := experiments.RunOpts{
		Warmup: o.Warmup, Measure: o.Measure, Drain: o.Drain,
		Depth: o.Depth, Seed: o.Seed, Points: o.Points,
		Replicates: o.Replicates, Workers: o.Workers,
		StepWorkers: o.StepWorkers,
	}
	if opts.Warmup == 0 {
		opts.Warmup = def.Warmup
	}
	if opts.Measure == 0 {
		opts.Measure = def.Measure
	}
	if opts.Drain == 0 {
		opts.Drain = def.Drain
	}
	if opts.Depth == 0 {
		opts.Depth = def.Depth
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	if opts.Points == 0 {
		opts.Points = def.Points
	}
	if opts.Replicates < 1 {
		opts.Replicates = 1
	}
	switch {
	case cyclesOver(opts.Warmup, opts.Measure, opts.Drain):
		return experiments.RunOpts{}, fmt.Errorf("warmup+measure+drain exceeds the limit %d", MaxTotalCycles)
	case opts.Depth > MaxDepth:
		return experiments.RunOpts{}, fmt.Errorf("depth %d exceeds the limit %d", opts.Depth, MaxDepth)
	case opts.Points < 0 || opts.Points > MaxRatePoints:
		return experiments.RunOpts{}, fmt.Errorf("points %d outside [0,%d]", opts.Points, MaxRatePoints)
	case opts.Replicates > MaxReplicates:
		return experiments.RunOpts{}, fmt.Errorf("replicates %d exceeds the limit %d", opts.Replicates, MaxReplicates)
	case opts.Workers < 0 || opts.Workers > MaxWorkers:
		return experiments.RunOpts{}, fmt.Errorf("workers %d outside [0,%d]", opts.Workers, MaxWorkers)
	case opts.StepWorkers < 0 || opts.StepWorkers > MaxWorkers:
		return experiments.RunOpts{}, fmt.Errorf("step_workers %d outside [0,%d]", opts.StepWorkers, MaxWorkers)
	}
	return opts, nil
}

// MaxPanelModels bounds the architectures one panel request may sweep.
const MaxPanelModels = 16

// PanelRequest is the body of POST /v1/panels: one figure panel (a rate
// sweep over a set of architectures), as in the paper's Figs 9-11. An empty
// Models list sweeps the paper's fixed quarc/spidergon pair under its
// pre-existing cache keys.
type PanelRequest struct {
	Figure      string    `json:"figure,omitempty"`
	Name        string    `json:"name,omitempty"`
	N           int       `json:"n"`
	MsgLen      int       `json:"msglen,omitempty"`
	Beta        float64   `json:"beta,omitempty"`
	Models      []string  `json:"models,omitempty"`
	Pattern     string    `json:"pattern,omitempty"`
	HotspotBias float64   `json:"hotspot_bias,omitempty"`
	McastFrac   float64   `json:"mcast_frac,omitempty"`
	McastSize   int       `json:"mcast_size,omitempty"`
	Rates       []float64 `json:"rates,omitempty"`
	Opts        SweepOpts `json:"opts,omitempty"`
	// DeadlineMs bounds the whole request in milliseconds (0 = none). Panels
	// have no analytic fallback, so expiry fails the job with "deadline
	// exceeded" rather than degrading.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SpecOpts converts the request to the sweep engine's (PanelSpec, RunOpts)
// pair: names parsed, caps enforced, and the points judged by the engine's own
// PanelSpec.Validate. Zero option fields take DefaultOpts values.
func (p PanelRequest) SpecOpts() (experiments.PanelSpec, experiments.RunOpts, error) {
	fail := func(err error) (experiments.PanelSpec, experiments.RunOpts, error) {
		return experiments.PanelSpec{}, experiments.RunOpts{}, err
	}
	pat, err := traffic.ParsePattern(p.Pattern)
	if err != nil {
		return fail(err)
	}
	switch {
	case p.N > MaxNodes:
		return fail(fmt.Errorf("n %d exceeds the limit %d", p.N, MaxNodes))
	case p.MsgLen > MaxMsgLen:
		return fail(fmt.Errorf("msglen %d exceeds the limit %d", p.MsgLen, MaxMsgLen))
	case len(p.Rates) > MaxRatePoints:
		return fail(fmt.Errorf("%d rates exceed the limit %d", len(p.Rates), MaxRatePoints))
	case len(p.Models) > MaxPanelModels:
		return fail(fmt.Errorf("%d models exceed the limit %d", len(p.Models), MaxPanelModels))
	}
	models, err := ParseModels(p.Models)
	if err != nil {
		return fail(err)
	}
	spec := experiments.PanelSpec{
		Figure: p.Figure, Name: p.Name,
		N: p.N, MsgLen: p.MsgLen, Beta: p.Beta, Models: models,
		Pattern: pat, HotspotBias: p.HotspotBias,
		McastFrac: p.McastFrac, McastSize: p.McastSize,
		Rates: append([]float64(nil), p.Rates...),
	}
	spec.MsgLen = experiments.Config{MsgLen: spec.MsgLen}.WithDefaults().MsgLen
	opts, err := p.Opts.RunOpts()
	if err != nil {
		return fail(err)
	}
	if err := spec.Validate(opts); err != nil {
		return fail(err)
	}
	rates := len(spec.Rates)
	if rates == 0 {
		rates = opts.Points
	}
	if points := int64(len(spec.SweptModels())) * int64(rates) * int64(opts.Replicates); points*(opts.Warmup+opts.Measure+opts.Drain) > MaxJobCycles {
		return fail(fmt.Errorf("points x replicates x cycles exceeds the job limit %d", int64(MaxJobCycles)))
	}
	return spec, opts, nil
}

// ParseModels resolves a model list — a request's "models" field, a CLI's
// -models flag — to canonical registry names; nil for an empty list. It
// refuses duplicates and empty names: in a list, "" is a stray comma.
func ParseModels(names []string) ([]string, error) {
	var models []string
	seen := map[string]bool{}
	for _, m := range names {
		if m == "" {
			return nil, fmt.Errorf("empty model name")
		}
		name, err := ParseModel(m)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate model %q", name)
		}
		seen[name] = true
		models = append(models, name)
	}
	return models, nil
}

// ResultJSON is the wire form of one simulation result: the configuration
// echo, then the measurements under experiments.Result's own wire names
// (encoding/json flattens the embedded struct in declaration order). Field
// values are pure functions of the configuration and seed, so identical
// requests marshal to identical bytes — the property the result cache relies
// on.
type ResultJSON struct {
	Topo         string  `json:"topo"`
	N            int     `json:"n"`
	MsgLen       int     `json:"msglen"`
	Beta         float64 `json:"beta"`
	Rate         float64 `json:"rate"`
	Pattern      string  `json:"pattern"`
	BurstMeanOn  float64 `json:"burst_mean_on,omitempty"`
	BurstMeanOff float64 `json:"burst_mean_off,omitempty"`
	McastFrac    float64 `json:"mcast_frac,omitempty"`
	McastSize    int     `json:"mcast_size,omitempty"`
	Seed         uint64  `json:"seed"`
	experiments.Result
}

// EncodeResult converts a measured result to its wire form. The embedded
// Result keeps no Cfg — the echo fields carry it — so a ResultJSON equals
// its own decoded bytes.
func EncodeResult(r experiments.Result) ResultJSON {
	c := r.Cfg
	r.Cfg = experiments.Config{}
	return ResultJSON{Topo: c.ModelName(), N: c.N, MsgLen: c.MsgLen, Beta: c.Beta, Rate: c.Rate,
		Pattern: c.Pattern.String(), BurstMeanOn: c.BurstMeanOn, BurstMeanOff: c.BurstMeanOff,
		McastFrac: c.McastFrac, McastSize: c.McastSize, Seed: c.Seed, Result: r}
}

// RunResult is the payload of a completed run job (and of quarcsim -json):
// the replicate aggregate plus, when replicated, the per-replicate results.
//
// Degraded marks the payload as an instant closed-form analytic estimate
// served because the request's deadline expired or the queue shed load:
// Result then carries the model's mean-latency prediction (latency
// percentile, broadcast and count fields are zero — the analytic model does
// not predict them) and ErrorBand quotes the validation suite's measured
// envelope against the simulator. Degraded payloads are never cached, so a
// later identical request gets the exact simulated answer. All three fields
// are omitted on normal payloads, keeping every pre-existing result
// byte-identical.
type RunResult struct {
	Result         ResultJSON   `json:"result"`
	Replicates     []ResultJSON `json:"replicates,omitempty"`
	Degraded       bool         `json:"degraded,omitempty"`
	DegradedReason string       `json:"degraded_reason,omitempty"`
	ErrorBand      float64      `json:"error_band,omitempty"`
}

// EncodeRun converts a replicated run to its wire form — the single encoding
// shared by the daemon's job payloads and quarcsim -json, so both surfaces
// stay byte-compatible by construction.
func EncodeRun(agg experiments.Result, reps []experiments.Result) RunResult {
	out := RunResult{Result: EncodeResult(agg)}
	if len(reps) > 1 {
		for _, r := range reps {
			out.Replicates = append(out.Replicates, EncodeResult(r))
		}
	}
	return out
}

// EncodeDegradedRun builds the degraded analytic answer for a run whose
// exact result can no longer be produced in time: the closed-form model's
// mean-latency prediction in the normal RunResult shape, flagged degraded
// with the stated reason and internal/analytic's validated error band. ok is
// false when the workload sits outside the analytic models' validated domain
// (non-uniform patterns, bursty sources, multicast, depth 1) or the model is not
// covered — such requests fail instead of answering with an unquantified
// guess. Offered loads past the saturation bound report Saturated with the
// saturation rate as throughput (the M/D/1 mean diverges there).
func EncodeDegradedRun(cfg experiments.Config, reason string) (RunResult, bool) {
	if !analyzableWorkload(cfg) {
		return RunResult{}, false
	}
	pred, ok := analytic.ForModel(cfg.ModelName(), cfg.N, cfg.MsgLen, cfg.Rate)
	if !ok {
		return RunResult{}, false
	}
	res := EncodeResult(experiments.Result{Cfg: cfg})
	if pred.MaxChannelUtil >= 1 || math.IsInf(pred.MeanLatency, 0) || math.IsNaN(pred.MeanLatency) {
		res.Saturated = true
		res.Throughput = pred.SaturationRate
	} else {
		res.UnicastMean = pred.MeanLatency
		res.Throughput = cfg.Rate
	}
	return RunResult{
		Result:         res,
		Degraded:       true,
		DegradedReason: reason,
		ErrorBand:      analytic.ErrorBand,
	}, true
}

// PanelResultJSON is the payload of a completed panel job (and of
// quarcbench -json): the replicate-aggregated sweep of the panel's model
// set. Legacy requests (no models field) keep the exact pre-N-way payload:
// quarc/spidergon arrays and no models/curves keys. N-way requests carry
// the swept model list in curve order plus one curve per model, with the
// quarc/spidergon arrays still populated when those models are in the set
// so pre-N-way consumers keep working.
type PanelResultJSON struct {
	Figure string  `json:"figure,omitempty"`
	Name   string  `json:"name,omitempty"`
	N      int     `json:"n"`
	MsgLen int     `json:"msglen"`
	Beta   float64 `json:"beta"`
	// Pattern is omitted for the paper's uniform workload, keeping
	// pre-existing panel payloads byte-identical.
	Pattern     string                  `json:"pattern,omitempty"`
	HotspotBias float64                 `json:"hotspot_bias,omitempty"`
	McastFrac   float64                 `json:"mcast_frac,omitempty"`
	McastSize   int                     `json:"mcast_size,omitempty"`
	Models      []string                `json:"models,omitempty"`
	Rates       []float64               `json:"rates"`
	Replicates  int                     `json:"replicates"`
	Quarc       []ResultJSON            `json:"quarc,omitempty"`
	Spidergon   []ResultJSON            `json:"spidergon,omitempty"`
	Curves      map[string][]ResultJSON `json:"curves,omitempty"`
}

// EncodePanel converts a measured panel to its wire form.
func EncodePanel(pr experiments.PanelResult) PanelResultJSON {
	out := PanelResultJSON{
		Figure: pr.Spec.Figure, Name: pr.Spec.Name,
		N: pr.Spec.N, MsgLen: pr.Spec.MsgLen, Beta: pr.Spec.Beta,
		McastFrac: pr.Spec.McastFrac, McastSize: pr.Spec.McastSize,
		Rates:      append([]float64(nil), pr.RatesSwept...),
		Replicates: pr.Replicates,
	}
	if pr.Spec.Pattern != traffic.Uniform || pr.Spec.HotspotBias != 0 {
		out.Pattern = pr.Spec.Pattern.String()
		out.HotspotBias = pr.Spec.HotspotBias
	}
	encode := func(name string) []ResultJSON {
		var rs []ResultJSON
		for _, r := range pr.Results[name] {
			rs = append(rs, EncodeResult(r))
		}
		return rs
	}
	out.Quarc = encode("quarc")
	out.Spidergon = encode("spidergon")
	if len(pr.Spec.Models) > 0 {
		out.Models = append([]string(nil), pr.Models...)
		out.Curves = make(map[string][]ResultJSON, len(pr.Models))
		for _, name := range pr.Models {
			switch name {
			case "quarc":
				out.Curves[name] = out.Quarc
			case "spidergon":
				out.Curves[name] = out.Spidergon
			default:
				out.Curves[name] = encode(name)
			}
		}
	}
	return out
}
