// Command quarcsim runs a single flit-level NoC simulation and prints its
// latency and throughput statistics. Its flags fill the request body of
// POST /v1/runs, and the configuration comes from the same conversion, so
// quarcsim accepts exactly what quarcd accepts, under the same caps.
//
// Examples:
//
//	quarcsim -topo quarc -n 16 -m 16 -beta 0.05 -rate 0.01
//	quarcsim -topo spidergon -n 64 -m 16 -beta 0.10 -rate 0.005 -cycles 20000
//	quarcsim -topo mesh -n 16 -m 8 -rate 0.02 -pattern hotspot
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"quarc"
	"quarc/internal/prof"
	"quarc/internal/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is quarcsim with its arguments and output streams; it returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quarcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var req service.RunRequest
	fs.StringVar(&req.Topo, "topo", "quarc", "network model by registry name (see -list-models)")
	fs.IntVar(&req.N, "n", 16, "number of nodes (multiple of 4 for rings, square for meshes)")
	fs.IntVar(&req.MsgLen, "m", 16, "message length in flits")
	fs.Float64Var(&req.Beta, "beta", 0.05, "broadcast fraction of generated messages")
	fs.Float64Var(&req.Rate, "rate", 0.01, "offered load, messages per node per cycle")
	fs.StringVar(&req.Pattern, "pattern", "uniform", "unicast pattern: uniform, hotspot, antipodal, neighbor, bitreverse")
	fs.Float64Var(&req.HotspotBias, "hotspot-bias", 0, "probability a hotspot-pattern unicast targets node 0")
	fs.Float64Var(&req.BurstMeanOn, "burst-on", 0, "bursty traffic: mean burst length in cycles (use with -burst-off; -rate stays the mean load)")
	fs.Float64Var(&req.BurstMeanOff, "burst-off", 0, "bursty traffic: mean silence length in cycles")
	fs.Float64Var(&req.McastFrac, "mcast-frac", 0, "fraction of non-broadcast messages sent as k-target multicasts (use with -mcast-size)")
	fs.IntVar(&req.McastSize, "mcast-size", 0, "targets per multicast, 2..N-1")
	fs.Int64Var(&req.Warmup, "warmup", 3000, "warmup cycles (not measured)")
	fs.Int64Var(&req.Measure, "cycles", 12000, "measured cycles")
	fs.Int64Var(&req.Drain, "drain", 40000, "max drain cycles after generation stops")
	fs.IntVar(&req.Depth, "depth", 4, "virtual-channel buffer depth in flits")
	fs.Uint64Var(&req.Seed, "seed", 1, "random seed")
	fs.IntVar(&req.Replicates, "replicates", 1,
		"independent replicates with derived seeds; >1 reports mean ± 95% CI across them")
	fs.IntVar(&req.Workers, "workers", 0, "replicate goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&req.StepWorkers, "step-workers", 0,
		"intra-fabric stepping goroutines (0 = automatic, 1 = serial); never changes the result")
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
		jsonOut    = fs.Bool("json", false,
			"emit the result as JSON in the quarcd wire schema instead of text")
		listModels = fs.Bool("list-models", false, "list the registered network models and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "quarcsim: %v\n", err)
		return code
	}

	if *listModels {
		for _, m := range service.Models() {
			fmt.Fprintf(stdout, "%-18s (e.g. -n %d)  %s\n", m.Name, m.ExampleN, m.Description)
		}
		return 0
	}

	cfg, err := req.Config()
	if err != nil {
		return fail(2, err)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(2, err)
	}
	res, reps, err := quarc.RunReplicated(cfg, req.Replicates, req.Workers)
	if perr := stopProf(); perr != nil {
		return fail(1, perr)
	}
	if err != nil {
		return fail(1, err)
	}

	if *jsonOut {
		if err := json.NewEncoder(stdout).Encode(service.EncodeRun(res, reps)); err != nil {
			return fail(1, err)
		}
		if res.Duplicates > 0 {
			return fail(1, fmt.Errorf("ERROR: %d duplicate deliveries (routing bug)", res.Duplicates))
		}
		return 0
	}

	fmt.Fprintf(stdout, "topology        %s\n", cfg.Model)
	fmt.Fprintf(stdout, "nodes           %d\n", cfg.N)
	fmt.Fprintf(stdout, "message length  %d flits\n", cfg.MsgLen)
	if cfg.BurstMeanOn > 0 {
		fmt.Fprintf(stdout, "bursty source   on %.0f / off %.0f cycles (mean load unchanged)\n", cfg.BurstMeanOn, cfg.BurstMeanOff)
	}
	if cfg.McastFrac > 0 {
		fmt.Fprintf(stdout, "multicast       %.0f%% of non-broadcast messages to %d targets (%d completed)\n",
			cfg.McastFrac*100, cfg.McastSize, res.McastCount)
	}
	if len(reps) > 1 {
		fmt.Fprintf(stdout, "replicates      %d (latencies are means ± 95%% CI across replicates)\n", len(reps))
	}
	fmt.Fprintf(stdout, "offered load    %.5f msgs/node/cycle (beta=%.0f%%)\n", cfg.Rate, cfg.Beta*100)
	fmt.Fprintf(stdout, "unicast latency %.2f ± %.2f cycles (%d messages)\n",
		res.UnicastMean, res.UnicastCI, res.UnicastCount)
	if res.UnicastCount > 0 {
		fmt.Fprintf(stdout, "unicast tail    p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
			res.UnicastP50, res.UnicastP95, res.UnicastP99)
	}
	if res.BcastCount > 0 {
		fmt.Fprintf(stdout, "bcast completion %.2f ± %.2f cycles (%d broadcasts)\n",
			res.BcastMean, res.BcastCI, res.BcastCount)
		fmt.Fprintf(stdout, "bcast tail      p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
			res.BcastP50, res.BcastP95, res.BcastP99)
		fmt.Fprintf(stdout, "bcast per-dest   %.2f cycles mean delivery\n", res.BcastDelivery)
	}
	fmt.Fprintf(stdout, "throughput      %.4f flits/node/cycle\n", res.Throughput)
	fmt.Fprintf(stdout, "saturated       %v\n", res.Saturated)
	if res.Leftover > 0 {
		fmt.Fprintf(stdout, "WARNING: %d messages undelivered within the drain budget\n", res.Leftover)
	}
	if res.Duplicates > 0 {
		fmt.Fprintf(stdout, "ERROR: %d duplicate deliveries (routing bug)\n", res.Duplicates)
		return 1
	}
	return 0
}
