// Command quarcbench regenerates the paper's evaluation artefacts: the
// latency-versus-load panels of Figs 9-11, the cost tables (Table 1 and
// Fig 12), the §3.2 simulator-versus-analytical-model verification, the
// modification ablation, the link-load balance analysis, and the
// future-work mesh/torus comparison.
//
// Examples:
//
//	quarcbench -experiment all
//	quarcbench -experiment fig9 -fast
//	quarcbench -experiment fig10 -replicates 5 -workers 8
//	quarcbench -experiment fig9 -models quarc,spidergon,ring -mcast-frac 0.1 -mcast-size 4
//	quarcbench -experiment cost
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/prof"
	"quarc/internal/service"
)

func main() {
	var (
		which = flag.String("experiment", "all",
			"one of: fig9, fig10, fig11, table1, fig12, cost, verify, ablation, mesh, linkload, contention, depth, bursty, hotspot, all")
		fast       = flag.Bool("fast", false, "reduced simulation length (quick look)")
		csvDir     = flag.String("csv", "", "also write per-panel CSV files into this directory")
		replicates = flag.Int("replicates", 1,
			"independent replicates per sweep point (mean ± 95% CI aggregation)")
		workers = flag.Int("workers", 0,
			"sweep goroutines (0 = GOMAXPROCS); never changes the results")
		stepWorkers = flag.Int("step-workers", 0,
			"intra-fabric stepping goroutines per design point (0 = automatic, "+
				"1 = serial); never changes the results")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
		serial     = flag.Bool("serial", false, "run panel sweeps on a single goroutine")
		jsonOut    = flag.Bool("json", false,
			"emit fig9/fig10/fig11 panels as NDJSON in the quarcd wire schema instead of tables")
		pattern = flag.String("pattern", "uniform",
			"unicast pattern for the fig9/fig10/fig11 panel sweeps: uniform, hotspot, antipodal, neighbor, bitreverse")
		hotspotBias = flag.Float64("hotspot-bias", 0,
			"probability a hotspot-pattern unicast targets node 0")
		modelsFlag = flag.String("models", "",
			"comma-separated registry model names the fig9/fig10/fig11 panels sweep "+
				"(default: the paper's quarc,spidergon pair; see -list-models)")
		mcastFrac = flag.Float64("mcast-frac", 0,
			"fraction of non-broadcast messages sent as k-target multicasts in the panel sweeps")
		mcastSize = flag.Int("mcast-size", 0,
			"targets per multicast, 2..N-1 (required with -mcast-frac)")
		listModels = flag.Bool("list-models", false, "list the registered network models and exit")
	)
	flag.Parse()

	if *listModels {
		for _, m := range service.Models() {
			fmt.Printf("%-18s (e.g. N=%d)  %s\n", m.Name, m.ExampleN, m.Description)
		}
		return
	}

	pat, err := service.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarcbench: %v\n", err)
		os.Exit(2)
	}
	var panelModels []string
	if *modelsFlag != "" {
		for _, m := range strings.Split(*modelsFlag, ",") {
			m = strings.TrimSpace(m)
			if m == "" {
				// ParseModel maps "" to the default model; a stray comma must
				// not silently add a quarc curve the user never asked for.
				fmt.Fprintf(os.Stderr, "quarcbench: -models: empty model name in %q\n", *modelsFlag)
				os.Exit(2)
			}
			name, err := service.ParseModel(m)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quarcbench: -models: %v\n", err)
				os.Exit(2)
			}
			panelModels = append(panelModels, name)
		}
	}
	if *jsonOut {
		switch *which {
		case "fig9", "fig10", "fig11":
		case "all":
			// Keep stdout pure NDJSON: under -json, "all" means the three
			// panel sweeps; the text-only experiments are skipped.
			fmt.Fprintln(os.Stderr, "quarcbench: -json: running the fig9/fig10/fig11 "+
				"panel sweeps only (the other experiments have no JSON form)")
		default:
			fmt.Fprintf(os.Stderr, "quarcbench: note: -json applies to the fig9/fig10/fig11 "+
				"panel sweeps; %q keeps its text output\n", *which)
		}
	}

	opts := experiments.DefaultOpts()
	if *fast {
		opts = experiments.FastOpts()
	}
	opts.Replicates = *replicates
	opts.Workers = *workers
	opts.StepWorkers = *stepWorkers

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarcbench: %v\n", err)
		os.Exit(2)
	}
	if *replicates > 1 {
		switch *which {
		case "fig9", "fig10", "fig11", "all":
		default:
			fmt.Fprintf(os.Stderr, "quarcbench: note: -replicates applies to the "+
				"fig9/fig10/fig11 panel sweeps; %q runs unreplicated\n", *which)
		}
	}

	runPanel := experiments.RunPanel
	if *serial {
		runPanel = experiments.RunPanelSerial
	}
	runPanels := func(name string, panels []experiments.PanelSpec) {
		for pi, spec := range panels {
			spec.Pattern, spec.HotspotBias = pat, *hotspotBias
			spec.Models = panelModels
			spec.McastFrac, spec.McastSize = *mcastFrac, *mcastSize
			start := time.Now()
			pr, err := runPanel(spec, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quarcbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			if *jsonOut {
				if err := json.NewEncoder(os.Stdout).Encode(service.EncodePanel(pr)); err != nil {
					fmt.Fprintf(os.Stderr, "quarcbench: %s: %v\n", name, err)
					os.Exit(1)
				}
			} else {
				fmt.Println(pr.Render())
				fmt.Printf("(panel swept in %.1fs)\n\n", time.Since(start).Seconds())
			}
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "quarcbench: %v\n", err)
					os.Exit(1)
				}
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_panel%d.csv", name, pi+1))
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "quarcbench: %v\n", err)
					os.Exit(1)
				}
				if err := pr.WriteCSV(f); err != nil {
					fmt.Fprintf(os.Stderr, "quarcbench: csv: %v\n", err)
					os.Exit(1)
				}
				f.Close()
				if *jsonOut {
					fmt.Fprintf(os.Stderr, "(csv written to %s)\n", path)
				} else {
					fmt.Printf("(csv written to %s)\n\n", path)
				}
			}
		}
	}

	ctx := context.Background()
	did := false
	panelExperiments := map[string]bool{"fig9": true, "fig10": true, "fig11": true}
	want := func(names ...string) bool {
		for _, n := range names {
			if *which == n || *which == "all" {
				if *jsonOut && *which == "all" && !panelExperiments[n] {
					return false // -json keeps stdout pure NDJSON
				}
				did = true
				return true
			}
		}
		return false
	}

	if want("fig9") {
		runPanels("fig9", experiments.Fig9Panels())
	}
	if want("fig10") {
		runPanels("fig10", experiments.Fig10Panels())
	}
	if want("fig11") {
		runPanels("fig11", experiments.Fig11Panels())
	}
	if want("table1", "fig12", "cost") {
		fmt.Println(experiments.RenderCost())
	}
	// report prints one text experiment's output, or dies naming it.
	report := func(name, out string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "quarcbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if want("verify") {
		rows, err := experiments.Verify(ctx, opts)
		report("verify", experiments.RenderVerify(rows), err)
	}
	if want("ablation") {
		n, m, beta, rate := 16, 16, 0.05, 0.008
		rows, err := experiments.Ablation(ctx, n, m, beta, rate, opts)
		report("ablation", experiments.RenderAblation(rows, n, m, beta, rate), err)
	}
	if want("mesh") {
		out, err := experiments.MeshComparison(ctx, 16, 16, 0.05, opts)
		report("mesh", out, err)
	}
	if want("linkload") {
		out, err := experiments.LinkLoadBalance(16, 2, 0.01, opts)
		report("linkload", out, err)
	}
	if want("contention") {
		out, err := experiments.Contention(ctx, 16, 16, 0.05, 0.012, opts)
		report("contention", out, err)
	}
	if want("depth") {
		for _, model := range []string{"quarc", "spidergon"} {
			rows, err := experiments.DepthSweep(ctx, model, 16, 16, 0.05, 0.012, opts)
			report("depth", experiments.RenderDepthSweep(model, rows), err)
		}
	}
	if want("bursty") {
		out, err := experiments.Bursty(ctx, 16, 16, 0.05, opts)
		report("bursty", out, err)
	}
	if want("hotspot") {
		out, err := experiments.HotspotComparison(ctx, 16, 16, 0.3, opts)
		report("hotspot", out, err)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "quarcbench: %v\n", err)
		os.Exit(1)
	}
	if !did {
		fmt.Fprintf(os.Stderr, "quarcbench: unknown experiment %q\n", *which)
		os.Exit(2)
	}
}
