// Command quarcexplore runs a design-space exploration locally: it expands a
// parameter lattice (models x sizes x offered rates x buffer depths x
// multicast presets), simulates every point, and prints the
// latency/throughput/cost Pareto front — the same engine POST /v1/explore
// serves, without the daemon.
//
// Examples:
//
//	quarcexplore -models quarc,spidergon -ns 16,32 -rates 0.005,0.01,0.02
//	quarcexplore -models quarc,mesh -ns 16 -rates 0.01 -depths 2,4,8 -fast
//	quarcexplore -models quarc,spidergon -ns 16 -rates 0.01 -csv front.csv
//
// The CSV lists every lattice point (not just the front) with an on_front
// column, so the dominated cloud can be re-plotted alongside the frontier.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/model"
	"quarc/internal/plot"
	"quarc/internal/service"
)

func main() {
	models := flag.String("models", "quarc,spidergon", "comma-separated model names (see -list)")
	ns := flag.String("ns", "16", "comma-separated network sizes")
	rates := flag.String("rates", "0.005,0.01,0.02", "comma-separated offered loads (msgs/node/cycle)")
	depths := flag.String("depths", "", "comma-separated buffer depths (empty: simulator default)")
	mcast := flag.String("mcast", "", "comma-separated multicast presets frac:size (e.g. 0.1:4,0.2:8)")
	msgLen := flag.Int("msglen", 16, "message length in flits")
	beta := flag.Float64("beta", 0, "broadcast fraction of generated messages")
	width := flag.Int("width", 32, "payload width (bits) for the silicon-cost axis")
	replicates := flag.Int("replicates", 1, "independent replicates per point")
	workers := flag.Int("workers", 0, "parallel point evaluations (0: GOMAXPROCS, as for sweeps; more than one steps each point's fabric serially)")
	seed := flag.Uint64("seed", 0, "base RNG seed (0: default)")
	fast := flag.Bool("fast", false, "reduced cycle budgets")
	csvPath := flag.String("csv", "", "write every lattice point as CSV to this file (- for stdout)")
	list := flag.Bool("list", false, "list registered models and exit")
	flag.Parse()

	if *list {
		for _, m := range model.All() {
			fmt.Printf("%-18s %s\n", m.Name, m.Description)
		}
		return
	}

	opts := experiments.DefaultOpts()
	if *fast {
		opts = experiments.FastOpts()
	}
	opts.Replicates = *replicates
	if *seed != 0 {
		opts.Seed = *seed
	}

	spec := explore.Spec{MsgLen: *msgLen, Beta: *beta, CostWidth: *width}
	var err error
	if spec.Models, err = service.ParseModels(strings.Split(strings.ReplaceAll(*models, " ", ""), ",")); err != nil {
		die("bad -models: %v", err)
	}
	if spec.Ns, err = splitInts(*ns); err != nil {
		die("bad -ns: %v", err)
	}
	if spec.Rates, err = splitFloats(*rates); err != nil {
		die("bad -rates: %v", err)
	}
	if spec.Depths, err = splitInts(*depths); err != nil {
		die("bad -depths: %v", err)
	}
	if spec.Mcast, err = parseMcast(*mcast); err != nil {
		die("bad -mcast: %v", err)
	}

	// p.Cfg arrives with explore.Run's StepWorkers pin already applied, so
	// this evaluator steps its points exactly as the daemon's does.
	eval := func(ctx context.Context, p explore.Point) (experiments.Result, bool, error) {
		agg, _, err := experiments.RunReplicatedContext(ctx, p.Cfg, opts.Replicates, 1, nil)
		return agg, false, err
	}
	var done atomic.Int64 // onPoint runs on the evaluation workers
	onPoint := func(i int, p explore.Point, res experiments.Result, cached bool) {
		fmt.Fprintf(os.Stderr, "point %d done: %s n=%d rate=%g\n", done.Add(1), p.Model, p.N, p.Rate)
	}
	oc, err := explore.Run(context.Background(), spec, opts, *workers, eval, onPoint)
	if err != nil {
		die("%v", err)
	}

	for _, sk := range oc.Skipped {
		fmt.Fprintf(os.Stderr, "skipped %s n=%d: %s\n", sk.Model, sk.N, sk.Reason)
	}
	fmt.Printf("lattice: %d points (%d duplicates collapsed, %d combinations skipped); front: %d points\n\n",
		len(oc.Points), oc.Deduped, len(oc.Skipped), len(oc.Front))

	fmt.Printf("== Pareto front: latency (min) / throughput (max) / cost (min, %d-bit slices) ==\n", effWidth(*width))
	var rows [][]string
	for _, i := range oc.Front {
		p := oc.Points[i]
		rows = append(rows, []string{
			p.Model, fmt.Sprint(p.N), fmt.Sprintf("%g", p.Rate), fmt.Sprint(p.Depth),
			mcastLabel(p.McastFrac, p.McastSize),
			latLabel(p), fmt.Sprintf("%.4f", p.Throughput), costLabel(p), analyticLabel(p),
		})
	}
	fmt.Println(plot.Table(
		[]string{"model", "n", "rate", "depth", "mcast", "latency", "throughput", "cost", "analytic err"},
		rows))

	if *csvPath != "" {
		if err := writeCSV(*csvPath, oc); err != nil {
			die("write csv: %v", err)
		}
	}
}

func effWidth(w int) int {
	if w == 0 {
		return 32
	}
	return w
}

func latLabel(p explore.PointOutcome) string {
	if p.Result.UnicastCount == 0 && p.Result.BcastCount == 0 {
		return "unmeasured"
	}
	return fmt.Sprintf("%.2f", p.Latency)
}

func costLabel(p explore.PointOutcome) string {
	if !p.CostKnown {
		return "unknown"
	}
	return fmt.Sprint(p.CostSlices)
}

func analyticLabel(p explore.PointOutcome) string {
	if !p.AnalyticErrOK {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", p.AnalyticErrPc)
}

func mcastLabel(frac float64, size int) string {
	if frac == 0 {
		return "-"
	}
	return fmt.Sprintf("%g:%d", frac, size)
}

// writeCSV emits every lattice point; the README documents the schema. An
// error closing the file (a failed flush) is reported like a failed write.
func writeCSV(path string, oc explore.Outcome) (err error) {
	out := os.Stdout
	if path != "-" {
		f, cerr := os.Create(path)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}
	w := csv.NewWriter(out)
	if err := w.Write([]string{
		"on_front", "dominated_by", "model", "n", "rate", "depth",
		"mcast_frac", "mcast_size", "latency", "throughput",
		"cost_slices", "cost_known", "analytic_latency", "analytic_err_pc",
	}); err != nil {
		return err
	}
	for i, p := range oc.Points {
		lat, alat, aerr := "", "", ""
		if p.Result.UnicastCount > 0 || p.Result.BcastCount > 0 {
			lat = fmt.Sprintf("%g", p.Latency)
		}
		if p.AnalyticOK {
			alat = fmt.Sprintf("%g", p.AnalyticLatency)
		}
		if p.AnalyticErrOK {
			aerr = fmt.Sprintf("%g", p.AnalyticErrPc)
		}
		domBy := ""
		if d := oc.DominatedBy[i]; d >= 0 {
			domBy = fmt.Sprint(d)
		}
		cost := ""
		if p.CostKnown {
			cost = fmt.Sprint(p.CostSlices)
		}
		if err := w.Write([]string{
			fmt.Sprint(oc.DominatedBy[i] == -1), domBy,
			p.Model, fmt.Sprint(p.N), fmt.Sprintf("%g", p.Rate), fmt.Sprint(p.Depth),
			fmt.Sprintf("%g", p.McastFrac), fmt.Sprint(p.McastSize),
			lat, fmt.Sprintf("%g", p.Throughput),
			cost, fmt.Sprint(p.CostKnown), alat, aerr,
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseMcast(s string) ([]explore.McastKnob, error) {
	var out []explore.McastKnob
	for _, f := range splitList(s) {
		fracStr, sizeStr, ok := strings.Cut(f, ":")
		if !ok {
			return nil, fmt.Errorf("preset %q is not frac:size", f)
		}
		frac, err := strconv.ParseFloat(fracStr, 64)
		if err != nil {
			return nil, err
		}
		size, err := strconv.Atoi(sizeStr)
		if err != nil {
			return nil, err
		}
		out = append(out, explore.McastKnob{Frac: frac, Size: size})
	}
	return out, nil
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quarcexplore: "+format+"\n", args...)
	os.Exit(2)
}
