// Command quarcbench regenerates the paper's evaluation artefacts: the
// latency-versus-load panels of Figs 9-11, then every study of
// experiments.Studies() — Table 1 and Fig 12, the §3.2 model verification,
// the modification ablation, the mesh/torus comparison, and the link-load,
// contention, buffer-depth, bursty and hotspot studies. -experiment selects
// from that one catalogue by name.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/prof"
	"quarc/internal/service"
	"quarc/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one entry of the catalogue: a figure's panels, or a study.
type experiment struct {
	experiments.Study
	panels []experiments.PanelSpec
}

// names lists the -experiment names that select e.
func (e experiment) names() []string { return append(slices.Clone(e.Aliases), e.Name) }

// catalogue is every experiment in report order: the Figs 9-11 panels, then
// the study table.
func catalogue() []experiment {
	cat := []experiment{
		{Study: experiments.Study{Name: "fig9"}, panels: experiments.Fig9Panels()},
		{Study: experiments.Study{Name: "fig10"}, panels: experiments.Fig10Panels()},
		{Study: experiments.Study{Name: "fig11"}, panels: experiments.Fig11Panels()},
	}
	for _, s := range experiments.Studies() {
		cat = append(cat, experiment{Study: s})
	}
	return cat
}

// run is quarcbench with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cat := catalogue()
	var names, panelNames []string
	for _, e := range cat {
		names = append(names, e.names()...)
		if e.panels != nil {
			panelNames = append(panelNames, e.Name)
		}
	}
	panelList := strings.Join(panelNames, "/")

	fs := flag.NewFlagSet("quarcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which = fs.String("experiment", "all",
			"one of: "+strings.Join(names, ", ")+", all")
		fast       = fs.Bool("fast", false, "reduced simulation length (quick look)")
		csvDir     = fs.String("csv", "", "also write per-panel CSV files into this directory")
		replicates = fs.Int("replicates", 1,
			"independent replicates per sweep point (mean ± 95% CI aggregation)")
		workers = fs.Int("workers", 0,
			"sweep goroutines (0 = GOMAXPROCS, 1 = points in order on one goroutine); never changes the results")
		stepWorkers = fs.Int("step-workers", 0,
			"intra-fabric stepping goroutines per design point (0 = automatic, "+
				"1 = serial); never changes the results")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
		jsonOut    = fs.Bool("json", false,
			"emit "+panelList+" panels as NDJSON in the quarcd wire schema instead of tables")
		pattern = fs.String("pattern", "uniform",
			"unicast pattern for the "+panelList+" panel sweeps: uniform, hotspot, antipodal, neighbor, bitreverse")
		hotspotBias = fs.Float64("hotspot-bias", 0,
			"probability a hotspot-pattern unicast targets node 0")
		modelsFlag = fs.String("models", "",
			"comma-separated registry model names the "+panelList+" panels sweep "+
				"(default: the paper's quarc,spidergon pair; see -list-models)")
		mcastFrac = fs.Float64("mcast-frac", 0,
			"fraction of non-broadcast messages sent as k-target multicasts in the panel sweeps")
		mcastSize = fs.Int("mcast-size", 0,
			"targets per multicast, 2..N-1 (required with -mcast-frac)")
		listModels = fs.Bool("list-models", false, "list the registered network models and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	warn := func(format string, a ...any) { fmt.Fprintf(stderr, "quarcbench: "+format+"\n", a...) }
	fail := func(code int, format string, a ...any) int {
		warn(format, a...)
		return code
	}

	if *listModels {
		for _, m := range service.Models() {
			fmt.Fprintf(stdout, "%-18s (e.g. N=%d)  %s\n", m.Name, m.ExampleN, m.Description)
		}
		return 0
	}
	all := *which == "all"
	var selected []experiment
	for _, e := range cat {
		if all && *jsonOut && e.panels == nil {
			continue // -json keeps stdout pure NDJSON
		}
		if all || slices.Contains(e.names(), *which) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fail(2, "unknown experiment %q", *which)
	}
	textOnly := !all && selected[0].panels == nil

	pat, err := traffic.ParsePattern(*pattern)
	if err != nil {
		return fail(2, "%v", err)
	}
	var panelModels []string
	if *modelsFlag != "" {
		if panelModels, err = service.ParseModels(strings.Split(strings.ReplaceAll(*modelsFlag, " ", ""), ",")); err != nil {
			return fail(2, "-models: %v", err)
		}
	}
	switch {
	case *jsonOut && all:
		warn("-json: running the %s panel sweeps only (the other experiments have no JSON form)", panelList)
	case *jsonOut && textOnly:
		warn("note: -json applies to the %s panel sweeps; %q keeps its text output", panelList, *which)
	}

	opts := experiments.DefaultOpts()
	if *fast {
		opts = experiments.FastOpts()
	}
	opts.Replicates, opts.Workers, opts.StepWorkers = *replicates, *workers, *stepWorkers

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(2, "%v", err)
	}
	if *replicates > 1 && textOnly {
		warn("note: -replicates applies to the %s panel sweeps; %q runs unreplicated", panelList, *which)
	}

	runPanels := func(name string, panels []experiments.PanelSpec) error {
		for pi, spec := range panels {
			spec.Pattern, spec.HotspotBias = pat, *hotspotBias
			spec.Models = panelModels
			spec.McastFrac, spec.McastSize = *mcastFrac, *mcastSize
			start := time.Now()
			pr, err := experiments.RunPanel(spec, opts)
			if err != nil {
				return err
			}
			if *jsonOut {
				if err := json.NewEncoder(stdout).Encode(service.EncodePanel(pr)); err != nil {
					return err
				}
			} else {
				fmt.Fprintln(stdout, pr.Render())
				fmt.Fprintf(stdout, "(panel swept in %.1fs)\n\n", time.Since(start).Seconds())
			}
			if *csvDir == "" {
				continue
			}
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("%s_panel%d.csv", name, pi+1))
			if err := writeCSV(path, pr); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
			if *jsonOut {
				fmt.Fprintf(stderr, "(csv written to %s)\n", path)
			} else {
				fmt.Fprintf(stdout, "(csv written to %s)\n\n", path)
			}
		}
		return nil
	}

	ctx := context.Background()
	for _, e := range selected {
		if e.panels != nil {
			if err := runPanels(e.Name, e.panels); err != nil {
				return fail(1, "%s: %v", e.Name, err)
			}
			continue
		}
		out, _, err := e.Run(ctx, opts)
		if err != nil {
			return fail(1, "%s: %v", e.Name, err)
		}
		fmt.Fprintln(stdout, out)
	}
	if err := stopProf(); err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

// writeCSV writes one panel's CSV file; an error closing it (a failed flush)
// is reported like a failed write, never taken for a complete file.
func writeCSV(path string, pr experiments.PanelResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pr.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
