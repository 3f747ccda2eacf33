// Command quarcexplore runs a design-space exploration locally: it expands a
// parameter lattice (models x sizes x offered rates x buffer depths x
// multicast presets), simulates every point, and prints the
// latency/throughput/cost Pareto front — the same engine POST /v1/explore
// serves, without the daemon but under its caps.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"quarc/internal/experiments"
	"quarc/internal/explore"
	"quarc/internal/model"
	"quarc/internal/plot"
	"quarc/internal/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is quarcexplore with its arguments and output streams; it returns the
// exit code. Its flags fill the request body of POST /v1/explore, and the
// lattice and options come from the same conversion, so quarcexplore accepts
// exactly what quarcd accepts, under the same caps.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quarcexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	req := service.ExploreRequest{Models: []string{"quarc", "spidergon"}, Ns: []int{16}, Rates: []float64{0.005, 0.01, 0.02}}
	listVar(fs, &req.Models, "models", "comma-separated model names (see -list; default quarc,spidergon)",
		func(s string) (string, error) { return s, nil })
	listVar(fs, &req.Ns, "ns", "comma-separated network sizes (default 16)", strconv.Atoi)
	listVar(fs, &req.Rates, "rates", "comma-separated offered loads, msgs/node/cycle (default 0.005,0.01,0.02)",
		func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	listVar(fs, &req.Depths, "depths", "comma-separated buffer depths (default: the simulator's)", strconv.Atoi)
	listVar(fs, &req.Mcast, "mcast", "comma-separated multicast presets frac:size (e.g. 0.1:4,0.2:8)", parseMcast)
	fs.IntVar(&req.MsgLen, "msglen", 16, "message length in flits")
	fs.Float64Var(&req.Beta, "beta", 0, "broadcast fraction of generated messages")
	fs.IntVar(&req.CostWidth, "width", 32, "payload width (bits) for the silicon-cost axis")
	fs.IntVar(&req.Opts.Replicates, "replicates", 1, "independent replicates per point")
	fs.IntVar(&req.Opts.Workers, "workers", 0, "parallel point evaluations (0: GOMAXPROCS, as for sweeps; more than one steps each point's fabric serially)")
	fs.Uint64Var(&req.Opts.Seed, "seed", 0, "base RNG seed (0: default)")
	var (
		fast    = fs.Bool("fast", false, "reduced cycle budgets")
		csvPath = fs.String("csv", "", "write every lattice point as CSV to this file (- for stdout)")
		list    = fs.Bool("list", false, "list registered models and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "quarcexplore: "+format+"\n", a...)
		return 2
	}

	if *list {
		for _, m := range model.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", m.Name, m.Description)
		}
		return 0
	}
	if *fast {
		f := experiments.FastOpts()
		req.Opts.Warmup, req.Opts.Measure, req.Opts.Drain = f.Warmup, f.Measure, f.Drain
	}
	spec, opts, _, err := req.SpecOpts()
	if err != nil {
		return fail("%v", err)
	}

	// p.Cfg arrives with explore.Run's StepWorkers pin already applied, so
	// this evaluator steps its points exactly as the daemon's does.
	eval := func(ctx context.Context, p explore.Point) (experiments.Result, bool, error) {
		agg, _, err := experiments.RunReplicatedContext(ctx, p.Cfg, opts.Replicates, 1, nil)
		return agg, false, err
	}
	var mu sync.Mutex // onPoint runs on the evaluation workers
	done := 0
	onPoint := func(i int, p explore.Point, res experiments.Result, cached bool) {
		mu.Lock()
		defer mu.Unlock()
		done++
		fmt.Fprintf(stderr, "point %d done: %s n=%d rate=%g\n", done, p.Model, p.N, p.Rate)
	}
	oc, err := explore.Run(context.Background(), spec, opts, opts.Workers, eval, onPoint)
	if err != nil {
		return fail("%v", err)
	}

	for _, sk := range oc.Skipped {
		fmt.Fprintf(stderr, "skipped %s n=%d: %s\n", sk.Model, sk.N, sk.Reason)
	}
	fmt.Fprintf(stdout, "lattice: %d points (%d duplicates collapsed, %d combinations skipped); front: %d points\n\n",
		len(oc.Points), oc.Deduped, len(oc.Skipped), len(oc.Front))

	fmt.Fprintf(stdout, "== Pareto front: latency (min) / throughput (max) / cost (min, %d-bit slices) ==\n", spec.CostWidthBits())
	var rows [][]string
	for _, i := range oc.Front {
		p := oc.Points[i]
		rows = append(rows, []string{
			p.Model, fmt.Sprint(p.N), fmt.Sprintf("%g", p.Rate), fmt.Sprint(p.Depth),
			mcastLabel(p.McastFrac, p.McastSize),
			latLabel(p), fmt.Sprintf("%.4f", p.Throughput), costLabel(p), analyticLabel(p),
		})
	}
	fmt.Fprintln(stdout, plot.Table(
		[]string{"model", "n", "rate", "depth", "mcast", "latency", "throughput", "cost", "analytic err"},
		rows))

	if *csvPath != "" {
		if err := writeCSV(*csvPath, stdout, oc); err != nil {
			return fail("write csv: %v", err)
		}
	}
	return 0
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

// writeCSV emits every lattice point to path, or to stdout for "-"; the
// README documents the schema. An error closing the file (a failed flush) is
// reported like a failed write.
func writeCSV(path string, stdout io.Writer, oc explore.Outcome) (err error) {
	out := stdout
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

// listVar binds a comma-separated list flag to *dst, each entry parsed by
// parse; an empty value is an empty list, and an empty entry (a stray comma)
// is whatever parse makes of "" — an error for every list here.
func listVar[T any](fs *flag.FlagSet, dst *[]T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) error {
		*dst = nil
		if strings.TrimSpace(s) == "" {
			return nil
		}
		for _, f := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
		return nil
	})
}

// parseMcast parses one multicast preset, frac:size.
func parseMcast(s string) (service.McastJSON, error) {
	fracStr, sizeStr, ok := strings.Cut(s, ":")
	if !ok {
		return service.McastJSON{}, fmt.Errorf("preset %q is not frac:size", s)
	}
	frac, err := strconv.ParseFloat(fracStr, 64)
	if err != nil {
		return service.McastJSON{}, err
	}
	size, err := strconv.Atoi(sizeStr)
	return service.McastJSON{Frac: frac, Size: size}, err
}
