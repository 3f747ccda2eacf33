package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"quarc/internal/analytic"
	"quarc/internal/cost"
	"quarc/internal/plot"
)

// VerifyRow compares the simulator with the analytical model at one
// configuration (the §3.2 verification methodology).
type VerifyRow struct {
	Model     string
	N         int
	MsgLen    int
	Rate      float64
	Simulated float64
	Predicted float64
	ErrorPc   float64
}

// Verify runs low-load unicast sweeps on the Spidergon, mesh and Quarc and
// compares mean latency against the analytical predictions.
func Verify(ctx context.Context, opts RunOpts) ([]VerifyRow, error) {
	opts = opts.normalized()
	var cfgs []Config
	for _, c := range []struct {
		model string
		n, m  int
	}{
		{"spidergon", 16, 8},
		{"spidergon", 32, 16},
		{"mesh", 16, 8},
		{"quarc", 16, 8},
		{"quarc", 32, 16},
	} {
		sat, _ := analytic.SaturationRate(c.model, c.n, c.m)
		// Analytical wormhole models are accurate well below saturation;
		// wormhole blocking chains (which no M/D/1 channel model captures)
		// dominate beyond ~30% of raw channel capacity, so verification
		// stays below that, exactly as low-load model validations do.
		for _, frac := range []float64{0.08, 0.15, 0.25} {
			cfgs = append(cfgs, opts.point(c.model, c.n, c.m, 0, sat*frac))
		}
	}
	results, err := runPoints(ctx, cfgs, opts.Workers)
	if err != nil {
		return nil, err
	}
	rows := make([]VerifyRow, len(results))
	for i, res := range results {
		c := cfgs[i]
		pred, _ := analytic.ForModel(c.Model, c.N, c.MsgLen, c.Rate)
		rows[i] = VerifyRow{
			Model: c.Model, N: c.N, MsgLen: c.MsgLen, Rate: c.Rate,
			Simulated: res.UnicastMean, Predicted: pred.MeanLatency,
			ErrorPc: 100 * (res.UnicastMean - pred.MeanLatency) / pred.MeanLatency,
		}
	}
	return rows, nil
}

// RenderVerify formats the verification table.
func RenderVerify(rows []VerifyRow) string {
	header := []string{"topology", "N", "M", "rate", "simulated", "model", "err %"}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.Model, fmt.Sprint(r.N), fmt.Sprint(r.MsgLen),
			fmt.Sprintf("%.5f", r.Rate),
			fmt.Sprintf("%.2f", r.Simulated),
			fmt.Sprintf("%.2f", r.Predicted),
			fmt.Sprintf("%+.1f", r.ErrorPc),
		})
	}
	return "== simulator vs analytical model (paper §3.2 verification) ==\n" +
		plot.Table(header, tr)
}

// AblationRow isolates the contribution of each Quarc modification.
type AblationRow struct {
	Variant   string // registry name of the model variant
	BcastMean float64
	UniMean   float64
	Saturated bool
}

// Ablation runs the modification ladder at a fixed moderate load:
// full Quarc, Quarc minus true broadcast (chain), Quarc minus all-port
// queues (single queue), and the Spidergon baseline.
func Ablation(ctx context.Context, n, msgLen int, beta, rate float64, opts RunOpts) ([]AblationRow, error) {
	opts = opts.normalized()
	var cfgs []Config
	for _, model := range []string{"quarc", "quarc-chainbcast", "quarc-1queue", "spidergon"} {
		cfgs = append(cfgs, opts.point(model, n, msgLen, beta, rate))
	}
	results, err := runPoints(ctx, cfgs, opts.Workers)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(results))
	for i, res := range results {
		rows[i] = AblationRow{
			Variant: cfgs[i].Model, BcastMean: res.BcastMean, UniMean: res.UnicastMean,
			Saturated: res.Saturated,
		}
	}
	return rows, nil
}

// RenderAblation formats the ablation table.
func RenderAblation(rows []AblationRow, n, msgLen int, beta, rate float64) string {
	header := []string{"variant", "bcast latency", "unicast latency", "saturated"}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.Variant,
			fmt.Sprintf("%.1f", r.BcastMean),
			fmt.Sprintf("%.1f", r.UniMean),
			fmt.Sprint(r.Saturated),
		})
	}
	return fmt.Sprintf("== ablation of the Quarc modifications (N=%d M=%d beta=%.0f%% rate=%.4f) ==\n",
		n, msgLen, beta*100, rate) + plot.Table(header, tr)
}

// MeshComparison runs the future-work comparison (paper §4): Quarc versus
// mesh and torus at equal node count under uniform traffic with broadcasts.
func MeshComparison(ctx context.Context, n, msgLen int, beta float64, opts RunOpts) (string, error) {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side*side != n {
		return "", fmt.Errorf("experiments: %d is not square", n)
	}
	opts = opts.normalized()
	base := analytic.QuarcUniform(n, msgLen, 0).SaturationRate
	derate := 1 + beta*float64(n)/4
	var cfgs []Config
	for _, model := range []string{"quarc", "mesh", "torus"} {
		for _, frac := range []float64{0.15, 0.35, 0.55} {
			cfgs = append(cfgs, opts.point(model, n, msgLen, beta, frac*base/derate))
		}
	}
	results, err := runPoints(ctx, cfgs, opts.Workers)
	if err != nil {
		return "", err
	}
	header := []string{"topology", "rate", "unicast", "bcast", "throughput", "saturated"}
	var rows [][]string
	for i, res := range results {
		bc := "-"
		if res.BcastCount > 0 {
			bc = fmt.Sprintf("%.1f", res.BcastMean)
		}
		rows = append(rows, []string{
			cfgs[i].Model, fmt.Sprintf("%.5f", cfgs[i].Rate),
			fmt.Sprintf("%.1f", res.UnicastMean), bc,
			fmt.Sprintf("%.3f", res.Throughput), fmt.Sprint(res.Saturated),
		})
	}
	return fmt.Sprintf("== quarc vs mesh/torus (N=%d M=%d beta=%.0f%%) ==\n", n, msgLen, beta*100) +
		plot.Table(header, rows), nil
}

// RenderCost formats Table 1 and Fig 12 from the structural area model.
func RenderCost() string {
	var b strings.Builder
	b.WriteString("== Table 1: module-wise cost of the 32-bit Quarc switch (slices) ==\n")
	var rows [][]string
	total := 0
	for _, r := range cost.Table1() {
		rows = append(rows, []string{r.Module, fmt.Sprint(r.Slices)})
		total += r.Slices
	}
	rows = append(rows, []string{"TOTAL", fmt.Sprint(total)})
	b.WriteString(plot.Table([]string{"module", "slices"}, rows))
	b.WriteString("\n== Fig 12: cost comparison between Quarc and Spidergon switches ==\n")
	var labels []string
	var values []float64
	for _, r := range cost.Fig12() {
		labels = append(labels,
			fmt.Sprintf("quarc-%d", r.Width), fmt.Sprintf("spidergon-%d", r.Width))
		values = append(values, float64(r.QuarcSlices), float64(r.SpidergonSlices))
	}
	b.WriteString(plot.Bars("occupied slices", labels, values, 48))
	hdr := []string{"width", "quarc", "spidergon", "quarc saves"}
	var frows [][]string
	for _, r := range cost.Fig12() {
		frows = append(frows, []string{
			fmt.Sprintf("%d-bit", r.Width),
			fmt.Sprint(r.QuarcSlices), fmt.Sprint(r.SpidergonSlices),
			fmt.Sprintf("%.1f%%", r.QuarcAdvantagePc),
		})
	}
	b.WriteString(plot.Table(hdr, frows))
	return b.String()
}

// LinkLoadBalance measures the per-link flit counts of both architectures
// under the same uniform workload, quantifying the paper's §2.1 claim that
// Spidergon traffic is unbalanced across link classes while the Quarc is
// edge-symmetric.
func LinkLoadBalance(n, msgLen int, rate float64, opts RunOpts) (string, error) {
	var b strings.Builder
	b.WriteString("== link load balance under uniform traffic ==\n")
	for _, model := range []string{"quarc", "spidergon"} {
		fab, nodes, err := build(opts.point(model, n, msgLen, 0, rate).WithDefaults())
		if err != nil {
			return "", err
		}
		// Drive with a simple deterministic all-pairs workload.
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					nodes[s].SendUnicast(d, msgLen, 0)
				}
			}
		}
		for i := 0; i < 200000 && fab.Tracker.InFlight() > 0; i++ {
			fab.Step()
		}
		loads := fab.LinkLoad()
		fmt.Fprintf(&b, "-- %s (all-pairs, M=%d) --\n", model, msgLen)
		hdr := []string{"link class", "mean flits", "min", "max"}
		var rows [][]string
		for out := range loads[0] {
			mean, min, max := 0.0, math.Inf(1), math.Inf(-1)
			for node := 0; node < n; node++ {
				v := float64(loads[node][out])
				mean += v
				min = math.Min(min, v)
				max = math.Max(max, v)
			}
			mean /= float64(n)
			rows = append(rows, []string{fmt.Sprintf("out%d", out),
				fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.0f", min), fmt.Sprintf("%.0f", max)})
		}
		b.WriteString(plot.Table(hdr, rows))
	}
	return b.String(), nil
}
