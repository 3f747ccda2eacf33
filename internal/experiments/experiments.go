// Package experiments is the reproduction harness: it assembles a network,
// drives it with the paper's workloads and measures the quantities plotted
// in the evaluation section — average unicast latency, average broadcast
// completion latency and sustainable load versus offered message rate, for
// every configuration of Figs 9, 10 and 11 — plus the cost tables (Table 1,
// Fig 12), the analytical-model verification of §3.2, the mesh/torus
// comparison announced in the conclusion, and the ablation of the paper's
// three architectural modifications.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"quarc/internal/model"
	// The built-in model packages register themselves with internal/model
	// from init functions; this blank import is what links them in. The
	// harness itself resolves models purely by name.
	_ "quarc/internal/models"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/sim"
	"quarc/internal/stats"
	"quarc/internal/traffic"
)

// Config is a single simulation run.
type Config struct {
	// Model selects the network model by registry name (case-insensitive;
	// empty means "quarc"). It is the only model selector.
	Model   string
	N       int     // nodes (square number for mesh/torus)
	MsgLen  int     // M, flits per message
	Beta    float64 // broadcast fraction
	Rate    float64 // offered messages/node/cycle
	Pattern traffic.Pattern
	// HotspotBias is the probability a Hotspot-pattern unicast targets node
	// 0 (ignored for other patterns).
	HotspotBias float64
	Depth       int // VC buffer depth (default 4)
	Warmup      int64
	Measure     int64
	Drain       int64
	Seed        uint64
	// BurstMeanOn/BurstMeanOff switch the workload from the Bernoulli
	// source to the two-state MMBP bursty source of internal/traffic: mean
	// burst and silence lengths in cycles (both must be set together).
	// Rate keeps its meaning as the long-run mean offered load; the ON-state
	// rate is Rate*(MeanOn+MeanOff)/MeanOn. Bursty runs use the Uniform
	// pattern only.
	BurstMeanOn  float64
	BurstMeanOff float64
	// McastFrac sends that fraction of the non-broadcast messages as
	// McastSize-target multicasts (distinct uniform targets). The Quarc
	// routes them natively along BRCP branches; the other models emulate
	// them by unicast fan-out — the paper's core comparison as a sweep
	// axis. Both knobs must be set together; both sources honour them.
	McastFrac float64
	McastSize int

	// StepWorkers sizes the intra-point worker pool that shards each fabric
	// cycle across goroutines: 0 auto-sizes (GOMAXPROCS clamped to N/64, as
	// a shard is whole 64-node words, so fabrics under 128 nodes step
	// serially), 1 forces serial stepping, higher values pin the count
	// (clamped the same way). Results are byte-identical at any value, so — exactly
	// like the sweep engine's Workers knob — the field is excluded from the
	// wire payload and the canonical cache keys (service.RunKey hashes an
	// explicit struct that has no such field).
	StepWorkers int `json:"-"`

	// stepGrain overrides the fabric's pool-engagement threshold (minimum
	// active nodes before parallel stepping pays). Test hook: the
	// worker-invariance suite sets it to 1 so registry-sized fabrics
	// exercise the parallel path. Unexported: not wire-visible.
	stepGrain int
}

// fabricObserverKey carries a func(*network.Fabric) in a context: RunContext
// invokes it on the finished fabric (post-drain, pre-Result). Study outcomes
// take their router statistics through it, and the activity-equivalence suite
// compares tracker counters and per-router statistics across stepping modes;
// a plain value lookup, so an un-instrumented run is unperturbed.
type fabricObserverKey struct{}

func withFabricObserver(ctx context.Context, fn func(*network.Fabric)) context.Context {
	return context.WithValue(ctx, fabricObserverKey{}, fn)
}

// clock is what RunContext's clock loop drives: the built fabric itself, or
// a stand-in for its switches that a test installs with withClock (the
// reference model the equivalence suites compare the fabric with).
type clock interface {
	Now() int64
	Idle() bool
	AdvanceIdle(cycles int64)
	StepBatch(n int64, hook func() bool) int64
	FlitsDelivered() uint64
}

// clockKey carries a func(*network.Fabric) clock in a context: RunContext
// hands it the built fabric, before any traffic, and drives what it returns.
type clockKey struct{}

func withClock(ctx context.Context, fn func(*network.Fabric) clock) context.Context {
	return context.WithValue(ctx, clockKey{}, fn)
}

// ModelName returns the canonical registry name of the model this
// configuration selects: Model lower-cased, "quarc" when empty.
func (c Config) ModelName() string {
	if c.Model == "" {
		return "quarc"
	}
	return strings.ToLower(c.Model)
}

// Bursty reports whether the configuration requests the MMBP source. Any
// non-zero value engages it (and must then pass validation), so malformed
// negative knobs are rejected instead of silently simulating the smooth
// source under a distinct cache key.
func (c Config) Bursty() bool { return c.BurstMeanOn != 0 || c.BurstMeanOff != 0 }

// Validate is the one rule for "is this design point simulable": the model is
// registered and accepts N, depth and budgets are sane, and the traffic source
// RunContext would install — the very value source builds — accepts its own
// parameters. Every layer that refuses a bad point (the wire requests,
// PanelSpec.Validate, explore's lattice skips, RunContext itself) refuses it
// through this rule, with this message. The configuration is judged as it
// would run, defaults applied.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if err := model.CheckSize(c.Model, c.N); err != nil {
		return err
	}
	switch {
	case c.Depth < 1:
		return fmt.Errorf("experiments: buffer depth %d (need >= 1)", c.Depth)
	case c.Depth > router.MaxDepth:
		return fmt.Errorf("experiments: buffer depth %d exceeds a switch's %d", c.Depth, router.MaxDepth)
	case c.Warmup < 0 || c.Measure < 0 || c.Drain < 0:
		return fmt.Errorf("experiments: cycle budgets must be non-negative")
	case c.StepWorkers < 0:
		return fmt.Errorf("experiments: negative step workers %d", c.StepWorkers)
	}
	if c.Bursty() && c.Pattern != traffic.Uniform {
		return fmt.Errorf("experiments: bursty traffic supports the uniform pattern only")
	}
	return c.source().Validate()
}

// source builds the traffic-source configuration of a run. Validate and
// RunContext both take it from here, so the value that was checked is the
// value that gets installed.
func (c Config) source() traffic.Config {
	return traffic.Config{
		N: c.N, Rate: c.Rate, Beta: c.Beta, MsgLen: c.MsgLen,
		Pattern: c.Pattern, HotspotBias: c.HotspotBias,
		McastFrac: c.McastFrac, McastSize: c.McastSize,
		MeanOn: c.BurstMeanOn, MeanOff: c.BurstMeanOff,
		Seed: c.Seed, Until: c.Warmup + c.Measure,
	}
}

// WithDefaults returns the configuration with unset fields replaced by their
// defaults and the model name canonicalised — exactly what Run simulates. The
// service layer canonicalises requests through it so equivalent
// configurations share one cache key.
func (c Config) WithDefaults() Config {
	c.Model = c.ModelName()
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Warmup == 0 {
		c.Warmup = 2000
	}
	if c.Measure == 0 {
		c.Measure = 10000
	}
	if c.Drain == 0 {
		c.Drain = 20000
	}
	if c.MsgLen == 0 {
		c.MsgLen = 16
	}
	return c
}

// Result summarises one run. The latency quantiles (P50/P95/P99 per traffic
// class) are histogram upper bounds at one-cycle resolution, computed with
// stats.Histogram.Quantile over the measured latencies. The JSON tags are the
// measurements' wire names: service.ResultJSON embeds Result after its
// configuration echo, so these tags and their order are the payload's.
type Result struct {
	Cfg           Config  `json:"-"`
	UnicastMean   float64 `json:"unicast_mean"` // mean tail latency, cycles
	UnicastCI     float64 `json:"unicast_ci95"`
	UnicastP50    float64 `json:"unicast_p50"` // median unicast latency
	UnicastP95    float64 `json:"unicast_p95"` // 95th percentile unicast latency
	UnicastP99    float64 `json:"unicast_p99"`
	UnicastCount  int64   `json:"unicast_count"`
	BcastMean     float64 `json:"bcast_mean"` // mean completion (last destination) latency
	BcastCI       float64 `json:"bcast_ci95"`
	BcastP50      float64 `json:"bcast_p50"`
	BcastP95      float64 `json:"bcast_p95"`
	BcastP99      float64 `json:"bcast_p99"`
	BcastDelivery float64 `json:"bcast_delivery"` // mean per-destination delivery latency
	BcastCount    int64   `json:"bcast_count"`
	// McastCount is the subset of BcastCount that were multicasts (the
	// collective accumulators fold broadcast and multicast completions
	// together; this exposes the split).
	McastCount int64   `json:"mcast_count,omitempty"`
	Throughput float64 `json:"throughput"` // delivered flits/node/cycle in the window
	Saturated  bool    `json:"saturated"`
	Leftover   int     `json:"leftover"` // messages still in flight after the drain budget
	Duplicates uint64  `json:"duplicates"`
	Cycles     int64   `json:"cycles"` // fabric cycles actually stepped (warmup+measure+drain used)
}

// build assembles the requested network by registry lookup. The harness
// carries no topology-specific knowledge: every model (including the Quarc
// ablation presets) is a registration.
func build(cfg Config) (*network.Fabric, []model.Node, error) {
	return model.Build(cfg.ModelName(), model.BuildConfig{N: cfg.N, Depth: cfg.Depth})
}

// ctxCheckPeriod is how often (in cycles) a cancellable run polls its
// context: rarely enough to stay off the hot path, often enough that
// cancellation lands within microseconds of wall time.
const ctxCheckPeriod = 512

// maxQuantileBuckets bounds the latency-histogram memory per run. Latencies
// beyond the bucket range land in the overflow bucket and clamp the reported
// quantile to the observed maximum.
const maxQuantileBuckets = 1 << 16

// Run executes one configuration and returns its measurements.
func Run(cfg Config) (Result, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run with cooperative cancellation: it returns ctx.Err()
// promptly (within ctxCheckPeriod simulated cycles) once ctx is cancelled,
// discarding the partial measurements. For a ctx that is never cancelled the
// result is bit-identical to Run — the context poller observes the kernel
// without perturbing it.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	fab, nodes, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	stepWorkers := cfg.StepWorkers
	if stepWorkers == 0 {
		stepWorkers = network.DefaultStepWorkers(cfg.N)
	}
	fab.SetStepWorkers(stepWorkers)
	defer fab.Close()
	if cfg.stepGrain > 0 {
		fab.SetStepGrain(cfg.stepGrain)
	}
	var clk clock = fab
	if fn, ok := ctx.Value(clockKey{}).(func(*network.Fabric) clock); ok {
		clk = fn(fab)
	}
	// The execution knobs are spent: clear them so the Cfg embedded in the
	// Result (and anything derived from it) is a pure function of the
	// workload, identical no matter how the point was stepped.
	cfg.StepWorkers, cfg.stepGrain = 0, 0

	var uni, bc, bcDeliv stats.Accumulator
	var mcastCount int64
	nb := cfg.Measure + cfg.Drain + 2
	if nb > maxQuantileBuckets {
		nb = maxQuantileBuckets
	}
	uniHist := stats.NewHistogram(int(nb), 1)
	bcHist := stats.NewHistogram(int(nb), 1)
	measureEnd := cfg.Warmup + cfg.Measure
	fab.Tracker.OnDone = func(r network.MessageRecord) {
		if r.Gen < cfg.Warmup || r.Gen >= measureEnd {
			return
		}
		switch r.Class {
		case network.ClassUnicast:
			uni.Add(float64(r.Last - r.Gen))
			uniHist.Add(float64(r.Last - r.Gen))
		case network.ClassBroadcast, network.ClassMulticast:
			bc.Add(float64(r.Last - r.Gen))
			bcHist.Add(float64(r.Last - r.Gen))
			bcDeliv.Add(float64(r.DeliSum)/float64(r.Delivered) - float64(r.Gen))
			if r.Class == network.ClassMulticast {
				mcastCount++
			}
		}
	}

	var k sim.Kernel
	senders := make([]traffic.Sender, len(nodes))
	for i, nd := range nodes {
		senders[i] = nd
	}
	if _, err := traffic.Install(&k, cfg.source(), senders); err != nil {
		return Result{}, err
	}

	// Saturation sampling: total source backlog every sampleEvery cycles
	// during the measurement window. The calendar keeps firing in the drain,
	// so the sampler stops once its next sample would fall outside.
	var det stats.SaturationDetector
	sampleEvery := cfg.Measure / 30
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	k.Ticker(cfg.Warmup, sampleEvery, sim.PriStats, func(now sim.Time) bool {
		total := 0
		for _, nd := range nodes {
			total += nd.Backlog()
		}
		det.Sample(float64(total))
		return now+sampleEvery <= measureEnd
	})

	// Throughput window bounds.
	var deliveredAtWarmup, deliveredAtEnd uint64
	k.Schedule(cfg.Warmup, sim.PriStats, func(sim.Time) { deliveredAtWarmup = clk.FlitsDelivered() })
	k.Schedule(measureEnd, sim.PriStats, func(sim.Time) { deliveredAtEnd = clk.FlitsDelivered() })

	// Cancellation poller: a pure observer at stats priority, registered only
	// for cancellable contexts so a background-context run schedules exactly
	// the events it always did.
	if ctx.Done() != nil {
		k.Ticker(0, ctxCheckPeriod, sim.PriStats, func(now sim.Time) bool {
			if ctx.Err() != nil {
				k.Stop()
				return false
			}
			return true
		})
	}

	// The clock loop. The fabric owns the clock: before cycle t the calendar
	// fires up to (t, PriFabric) — the traffic of t, the statistics of t-1.
	// A busy stretch is one StepBatch whose hook fires the calendar between
	// cycles, so a pooled fabric wakes its helpers once per stretch; the hook
	// ends the batch when the context poller has stopped the kernel, when the
	// fabric falls idle and, in the drain, when the last message lands. An
	// idle stretch of the live window (cycles up to measureEnd) is skipped in
	// O(1) to the calendar's next event: an idle cycle only advances the
	// clock, so the skip is exactly what stepping every router would spend
	// proving none has anything to do. The drain follows with no traffic,
	// until every message lands or its budget is spent.
	liveEnd, drainEnd := measureEnd+1, measureEnd+1+cfg.Drain
	hook := func() bool {
		t := clk.Now()
		k.RunBefore(t, sim.PriFabric)
		return k.Stopped() || clk.Idle() || t >= liveEnd && fab.Tracker.InFlight() == 0
	}
	for {
		t := clk.Now()
		k.RunBefore(t, sim.PriFabric)
		if k.Stopped() {
			return Result{}, ctx.Err()
		}
		end := liveEnd
		if t >= liveEnd {
			// Nothing buffered and no backlog, yet messages in flight, is a
			// conservation bug no amount of stepping would drain; Leftover
			// reports the loss.
			if t == drainEnd || fab.Tracker.InFlight() == 0 || clk.Idle() {
				break
			}
			end = drainEnd
		}
		if clk.Idle() {
			next, ok := k.NextEventTime()
			if !ok || next > liveEnd {
				next = liveEnd
			}
			clk.AdvanceIdle(max(next-t, 1))
			continue
		}
		clk.StepBatch(end-t, hook)
	}
	drained := clk.Now() - liveEnd
	if fn, ok := ctx.Value(fabricObserverKey{}).(func(*network.Fabric)); ok {
		fn(fab)
	}

	// Latencies are integer cycle counts in width-1 buckets, so bucket i
	// holds only the value i and Quantile's upper bound (i+1) overshoots by
	// exactly one: subtracting the width recovers the exact order statistic.
	// A quantile landing in the overflow bucket clamps to the observed max.
	quant := func(h *stats.Histogram, a *stats.Accumulator, q float64) float64 {
		if a.Count() == 0 {
			return 0
		}
		v := h.Quantile(q)
		if math.IsInf(v, 1) {
			return a.Max()
		}
		return v - 1
	}
	res := Result{
		Cfg:           cfg,
		UnicastMean:   uni.Mean(),
		UnicastCI:     uni.CI95(),
		UnicastP50:    quant(uniHist, &uni, 0.50),
		UnicastP95:    quant(uniHist, &uni, 0.95),
		UnicastP99:    quant(uniHist, &uni, 0.99),
		UnicastCount:  uni.Count(),
		BcastMean:     bc.Mean(),
		BcastCI:       bc.CI95(),
		BcastP50:      quant(bcHist, &bc, 0.50),
		BcastP95:      quant(bcHist, &bc, 0.95),
		BcastP99:      quant(bcHist, &bc, 0.99),
		BcastDelivery: bcDeliv.Mean(),
		BcastCount:    bc.Count(),
		McastCount:    mcastCount,
		Throughput:    float64(deliveredAtEnd-deliveredAtWarmup) / float64(cfg.N) / float64(cfg.Measure),
		Leftover:      fab.Tracker.InFlight(),
		Duplicates:    fab.Tracker.Duplicates(),
		Cycles:        measureEnd + drained,
	}
	res.Saturated = det.Saturated() || res.Leftover > 0
	return res, nil
}
