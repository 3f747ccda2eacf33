// Command quarcsim runs a single flit-level NoC simulation and prints its
// latency and throughput statistics.
//
// Examples:
//
//	quarcsim -topo quarc -n 16 -m 16 -beta 0.05 -rate 0.01
//	quarcsim -topo spidergon -n 64 -m 16 -beta 0.10 -rate 0.005 -cycles 20000
//	quarcsim -topo mesh -n 16 -m 8 -rate 0.02 -pattern hotspot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"quarc"
	"quarc/internal/prof"
	"quarc/internal/service"
)

func main() {
	var (
		topoName    = flag.String("topo", "quarc", "network model by registry name (see -list-models)")
		n           = flag.Int("n", 16, "number of nodes (multiple of 4 for rings, square for meshes)")
		m           = flag.Int("m", 16, "message length in flits")
		beta        = flag.Float64("beta", 0.05, "broadcast fraction of generated messages")
		rate        = flag.Float64("rate", 0.01, "offered load, messages per node per cycle")
		pattern     = flag.String("pattern", "uniform", "unicast pattern: uniform, hotspot, antipodal, neighbor, bitreverse")
		hotspotBias = flag.Float64("hotspot-bias", 0, "probability a hotspot-pattern unicast targets node 0")
		burstOn     = flag.Float64("burst-on", 0, "bursty traffic: mean burst length in cycles (use with -burst-off; -rate stays the mean load)")
		burstOff    = flag.Float64("burst-off", 0, "bursty traffic: mean silence length in cycles")
		mcastFrac   = flag.Float64("mcast-frac", 0, "fraction of non-broadcast messages sent as k-target multicasts (use with -mcast-size)")
		mcastSize   = flag.Int("mcast-size", 0, "targets per multicast, 2..N-1")
		warmup      = flag.Int64("warmup", 3000, "warmup cycles (not measured)")
		cycles      = flag.Int64("cycles", 12000, "measured cycles")
		drain       = flag.Int64("drain", 40000, "max drain cycles after generation stops")
		depth       = flag.Int("depth", 4, "virtual-channel buffer depth in flits")
		seed        = flag.Uint64("seed", 1, "random seed")
		replicates  = flag.Int("replicates", 1,
			"independent replicates with derived seeds; >1 reports mean ± 95% CI across them")
		workers     = flag.Int("workers", 0, "replicate goroutines (0 = GOMAXPROCS)")
		stepWorkers = flag.Int("step-workers", 0,
			"intra-fabric stepping goroutines (0 = automatic, 1 = serial); never changes the result")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
		jsonOut    = flag.Bool("json", false,
			"emit the result as JSON in the quarcd wire schema instead of text")
		listModels = flag.Bool("list-models", false, "list the registered network models and exit")
	)
	flag.Parse()

	if *listModels {
		for _, m := range service.Models() {
			fmt.Printf("%-18s (e.g. -n %d)  %s\n", m.Name, m.ExampleN, m.Description)
		}
		return
	}

	// The wire vocabulary lives in one place: the service schema, which in
	// turn defers to the model registry.
	model, err := service.ParseModel(*topoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarcsim: %v\n", err)
		os.Exit(2)
	}
	pat, err := service.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarcsim: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarcsim: %v\n", err)
		os.Exit(2)
	}

	res, reps, err := quarc.RunReplicated(quarc.Config{
		Model: model, N: *n, MsgLen: *m, Beta: *beta, Rate: *rate,
		Pattern: pat, HotspotBias: *hotspotBias,
		BurstMeanOn: *burstOn, BurstMeanOff: *burstOff,
		McastFrac: *mcastFrac, McastSize: *mcastSize, Depth: *depth,
		Warmup: *warmup, Measure: *cycles, Drain: *drain, Seed: *seed,
		StepWorkers: *stepWorkers,
	}, *replicates, *workers)
	if perr := stopProf(); perr != nil {
		fmt.Fprintf(os.Stderr, "quarcsim: %v\n", perr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarcsim: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(service.EncodeRun(res, reps)); err != nil {
			fmt.Fprintf(os.Stderr, "quarcsim: %v\n", err)
			os.Exit(1)
		}
		if res.Duplicates > 0 {
			fmt.Fprintf(os.Stderr, "quarcsim: ERROR: %d duplicate deliveries (routing bug)\n", res.Duplicates)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("topology        %s\n", model)
	fmt.Printf("nodes           %d\n", *n)
	fmt.Printf("message length  %d flits\n", *m)
	if *burstOn > 0 {
		fmt.Printf("bursty source   on %.0f / off %.0f cycles (mean load unchanged)\n", *burstOn, *burstOff)
	}
	if *mcastFrac > 0 {
		fmt.Printf("multicast       %.0f%% of non-broadcast messages to %d targets (%d completed)\n",
			*mcastFrac*100, *mcastSize, res.McastCount)
	}
	if len(reps) > 1 {
		fmt.Printf("replicates      %d (latencies are means ± 95%% CI across replicates)\n", len(reps))
	}
	fmt.Printf("offered load    %.5f msgs/node/cycle (beta=%.0f%%)\n", *rate, *beta*100)
	fmt.Printf("unicast latency %.2f ± %.2f cycles (%d messages)\n",
		res.UnicastMean, res.UnicastCI, res.UnicastCount)
	if res.UnicastCount > 0 {
		fmt.Printf("unicast tail    p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
			res.UnicastP50, res.UnicastP95, res.UnicastP99)
	}
	if res.BcastCount > 0 {
		fmt.Printf("bcast completion %.2f ± %.2f cycles (%d broadcasts)\n",
			res.BcastMean, res.BcastCI, res.BcastCount)
		fmt.Printf("bcast tail      p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
			res.BcastP50, res.BcastP95, res.BcastP99)
		fmt.Printf("bcast per-dest   %.2f cycles mean delivery\n", res.BcastDelivery)
	}
	fmt.Printf("throughput      %.4f flits/node/cycle\n", res.Throughput)
	fmt.Printf("saturated       %v\n", res.Saturated)
	if res.Leftover > 0 {
		fmt.Printf("WARNING: %d messages undelivered within the drain budget\n", res.Leftover)
	}
	if res.Duplicates > 0 {
		fmt.Printf("ERROR: %d duplicate deliveries (routing bug)\n", res.Duplicates)
		os.Exit(1)
	}
}
