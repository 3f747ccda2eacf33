// Package quarc is a flit-level simulation library reproducing "Design and
// implementation of the Quarc Network on-Chip" (Moadeli, Maji,
// Vanderbauwhede; IEEE IPDPS 2009).
//
// It provides cycle-accurate wormhole models of the Quarc NoC (an all-port,
// doubled-cross-link derivative of the Spidergon with true hardware
// broadcast/multicast along base-routing conformed paths), the Spidergon
// baseline, and mesh/torus substrates; synthetic traffic generation;
// analytical latency models; a structural FPGA area model calibrated to the
// paper's Virtex-II Pro results; and an experiment harness that regenerates
// every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := quarc.Run(quarc.Config{
//	    Model: "quarc", N: 16, MsgLen: 16, Beta: 0.05, Rate: 0.01,
//	})
//	fmt.Println(res.UnicastMean, res.BcastMean)
//
// For direct access to the fabric (custom workloads), build a registered
// network and drive it cycle by cycle:
//
//	fab, nodes, _ := quarc.Build("quarc", 16, 4)
//	nodes[0].SendBroadcast(16, fab.Now())
//	for fab.Tracker.InFlight() > 0 {
//	    fab.Step()
//	}
package quarc

import (
	"context"

	"quarc/internal/cost"
	"quarc/internal/experiments"
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/traffic"
)

// Config parameterises a measured simulation run; Result carries its
// measurements. Config.Model selects the network by registry name ("quarc",
// "spidergon", "mesh", "ring", ...; RegisteredModels lists them). See
// internal/experiments for field documentation.
type (
	Config = experiments.Config
	Result = experiments.Result
)

// Run executes one configuration: build the network, apply the workload for
// the warmup+measure window, drain, and report latency and throughput
// statistics.
func Run(cfg Config) (Result, error) { return experiments.Run(cfg) }

// RunContext is Run with cooperative cancellation: it returns ctx.Err()
// promptly once ctx is cancelled; for a never-cancelled ctx the result is
// bit-identical to Run. The quarcd daemon's job cancellation rides on it.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	return experiments.RunContext(ctx, cfg)
}

// PointDone describes one completed sweep design point, delivered to
// RunOpts.OnPointDone for progress streaming.
type PointDone = experiments.PointDone

// Sweep types for regenerating the paper's figures.
type (
	PanelSpec   = experiments.PanelSpec
	PanelResult = experiments.PanelResult
	RunOpts     = experiments.RunOpts
)

// Figure panel definitions (paper Figs 9, 10, 11).
func Fig9Panels() []PanelSpec  { return experiments.Fig9Panels() }
func Fig10Panels() []PanelSpec { return experiments.Fig10Panels() }
func Fig11Panels() []PanelSpec { return experiments.Fig11Panels() }

// DefaultOpts and FastOpts scale simulation effort.
func DefaultOpts() RunOpts { return experiments.DefaultOpts() }
func FastOpts() RunOpts    { return experiments.FastOpts() }

// RunPanel sweeps one figure panel over offered load for every model in
// PanelSpec.Models (the paper's Quarc/Spidergon pair when it is empty),
// fanning the independent (model, rate, replicate) points across
// RunOpts.Workers goroutines. RunOpts.Replicates runs each point
// several times with independent seeds and aggregates mean ± 95% CI. For a
// fixed RunOpts.Seed the result is bit-identical to RunPanelSerial.
func RunPanel(spec PanelSpec, opts RunOpts) (PanelResult, error) {
	return experiments.RunPanel(spec, opts)
}

// RunPanelContext is RunPanel with cooperative cancellation; RunOpts can
// also carry an OnPointDone callback to stream per-point progress.
func RunPanelContext(ctx context.Context, spec PanelSpec, opts RunOpts) (PanelResult, error) {
	return experiments.RunPanelContext(ctx, spec, opts)
}

// RunPanelSerial is RunPanel on a single goroutine — the reference execution
// the parallel engine is tested against.
func RunPanelSerial(spec PanelSpec, opts RunOpts) (PanelResult, error) {
	return experiments.RunPanelSerial(spec, opts)
}

// PanelPointCount returns the number of design points RunPanel will execute
// for a spec and options — the denominator of sweep progress.
func PanelPointCount(spec PanelSpec, opts RunOpts) int {
	return experiments.PanelPointCount(spec, opts)
}

// RunReplicated executes one configuration several times with independent
// derived seeds (in parallel across workers; 0 means GOMAXPROCS) and returns
// the mean ± CI aggregate alongside the per-replicate results.
func RunReplicated(cfg Config, replicates, workers int) (Result, []Result, error) {
	return experiments.RunReplicated(cfg, replicates, workers)
}

// RunReplicatedContext is RunReplicated with cooperative cancellation and an
// optional per-replicate completion callback.
func RunReplicatedContext(ctx context.Context, cfg Config, replicates, workers int, onDone func(PointDone)) (Result, []Result, error) {
	return experiments.RunReplicatedContext(ctx, cfg, replicates, workers, onDone)
}

// PointSeed derives the deterministic seed of a sweep design point (model
// registry name, rate index, replicate) from an experiment-level base seed.
func PointSeed(base uint64, model string, rateIndex, replicate int) uint64 {
	return experiments.PointSeed(base, model, rateIndex, replicate)
}

// Direct fabric access. Fabric is the assembled network; Step advances one
// cycle; Tracker follows message lifecycles.
type (
	Fabric        = network.Fabric
	MessageRecord = network.MessageRecord
	Tracker       = network.Tracker
)

// Build assembles the n-node network registered under name (see
// RegisteredModels) with depth-flit virtual-channel buffers: the fabric and
// one ModelNode per network node. A mesh or torus of n nodes is square.
func Build(name string, n, depth int) (*Fabric, []ModelNode, error) {
	return model.Build(name, model.BuildConfig{N: n, Depth: depth})
}

// DefaultStepWorkers is the automatic intra-fabric worker-pool size for an
// n-node fabric: GOMAXPROCS, clamped to n/64 so each worker's shard holds at
// least one whole 64-node word; fabrics under 128 nodes step serially (see
// Fabric.SetStepWorkers and Config.StepWorkers).
func DefaultStepWorkers(n int) int { return network.DefaultStepWorkers(n) }

// Model registry: every network model the harness can simulate is a named
// registration. Model describes one entry (name, metadata, builder);
// ModelNode is the per-node surface a builder returns.
type (
	Model            = model.Model
	ModelNode        = model.Node
	ModelBuildConfig = model.BuildConfig
)

// RegisteredModels lists the registered models sorted by name.
func RegisteredModels() []Model { return model.All() }

// LookupModel resolves a model by its registry name.
func LookupModel(name string) (Model, bool) { return model.Lookup(name) }

// RegisterModel adds a model to the registry; Config.Model selects it by
// name and the experiment harness, service layer and CLIs pick it up with
// no further wiring. It panics on duplicate or malformed registrations.
func RegisterModel(m Model) { model.Register(m) }

// Traffic pattern selection for Config.Pattern.
type Pattern = traffic.Pattern

// Pattern values.
const (
	Uniform         = traffic.Uniform
	Hotspot         = traffic.Hotspot
	Antipodal       = traffic.Antipodal
	NearestNeighbor = traffic.NearestNeighbor
	BitReverse      = traffic.BitReverse
)

// Cost model (paper Table 1 and Fig 12).
type (
	SwitchCost = cost.Switch
	ModuleCost = cost.ModuleCost
	Fig12Row   = cost.Fig12Row
)

// QuarcSwitchCost and SpidergonSwitchCost return the calibrated structural
// area models.
func QuarcSwitchCost() SwitchCost     { return cost.QuarcSwitch() }
func SpidergonSwitchCost() SwitchCost { return cost.SpidergonSwitch() }

// Table1 returns the module-wise slice counts of the 32-bit Quarc switch.
func Table1() []ModuleCost { return cost.Table1() }

// Fig12 returns the 16/32/64-bit cost comparison.
func Fig12() []Fig12Row { return cost.Fig12() }
