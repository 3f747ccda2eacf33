package experiments

import (
	"context"
	"fmt"

	"quarc/internal/analytic"
	"quarc/internal/network"
	"quarc/internal/plot"
	"quarc/internal/router"
	"quarc/internal/traffic"
)

// Contention reports the microarchitectural stall breakdown (no-credit /
// vc-busy / arbitration-lost) and mean buffer occupancy for the Quarc and
// the Spidergon under the same uniform workload. It explains *where* the
// Spidergon loses: its shared cross link and single ejection port turn into
// arbitration and credit stalls well before the rim channels saturate.
func Contention(ctx context.Context, n, msgLen int, beta, rate float64, opts RunOpts) (string, error) {
	// The two points run one at a time (each needs its own fabric observer),
	// so let each fabric auto-size its step pool.
	opts.Workers = 1
	header := []string{"topology", "grants", "no-credit", "vc-busy", "arb-lost",
		"stall/grant", "mean buf occupancy"}
	var rows [][]string
	for _, model := range []string{"quarc", "spidergon"} {
		var st router.Stats
		observed := withFabricObserver(ctx, func(fab *network.Fabric) { st = fab.RouterStats() })
		if _, err := RunContext(observed, opts.point(model, n, msgLen, beta, rate)); err != nil {
			return "", err
		}
		ratio := 0.0
		if st.Grants > 0 {
			ratio = float64(st.TotalStalls()) / float64(st.Grants)
		}
		rows = append(rows, []string{
			model,
			fmt.Sprint(st.Grants),
			fmt.Sprint(st.Stalls[router.StallNoCredit]),
			fmt.Sprint(st.Stalls[router.StallVCBusy]),
			fmt.Sprint(st.Stalls[router.StallArbLost]),
			fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%.2f", st.MeanOccupancy()/float64(n)),
		})
	}
	return "== stall breakdown under identical load ==\n" + plot.Table(header, rows), nil
}

// DepthRow is one point of the buffer-depth ablation.
type DepthRow struct {
	Depth     int
	UniMean   float64
	BcastMean float64
	Saturated bool
}

// DepthSweep isolates the one free microarchitectural parameter the paper
// leaves open ("The buffers in the design are parametrized in width and
// depth", §2.3.1): latency versus VC buffer depth at a fixed load.
func DepthSweep(ctx context.Context, model string, n, msgLen int, beta, rate float64, opts RunOpts) ([]DepthRow, error) {
	opts = opts.normalized()
	var cfgs []Config
	for _, depth := range []int{1, 2, 4, 8, 16} {
		cfg := opts.point(model, n, msgLen, beta, rate)
		cfg.Depth = depth
		cfgs = append(cfgs, cfg)
	}
	results, err := runPoints(ctx, cfgs, opts.Workers)
	if err != nil {
		return nil, err
	}
	rows := make([]DepthRow, len(results))
	for i, res := range results {
		rows[i] = DepthRow{
			Depth: cfgs[i].Depth, UniMean: res.UnicastMean, BcastMean: res.BcastMean,
			Saturated: res.Saturated,
		}
	}
	return rows, nil
}

// RenderDepthSweep formats the depth ablation.
func RenderDepthSweep(model string, rows []DepthRow) string {
	header := []string{"buffer depth", "unicast", "broadcast", "saturated"}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprint(r.Depth),
			fmt.Sprintf("%.1f", r.UniMean),
			fmt.Sprintf("%.1f", r.BcastMean),
			fmt.Sprint(r.Saturated),
		})
	}
	return fmt.Sprintf("== buffer depth ablation (%s) ==\n", model) + plot.Table(header, tr)
}

// Bursty compares both architectures under ON/OFF bursty traffic at the
// same mean offered load as a uniform baseline (the paper's §1 point that
// burstiness "exacerbates" the Spidergon's imbalance): bursts of ~40 cycles
// at 4x concentration (off 120). The bursty points ride the
// Config.BurstMeanOn/BurstMeanOff path, so this report and a wire-API bursty
// run exercise identical code.
func Bursty(ctx context.Context, n, msgLen int, beta float64, opts RunOpts) (string, error) {
	opts = opts.normalized()
	base := analytic.QuarcUniform(n, msgLen, 0).SaturationRate
	meanRate := 0.25 * base / (1 + 7*beta)
	models := []string{"quarc", "spidergon"}
	var cfgs []Config // per model: smooth, then bursty
	for _, model := range models {
		smooth := opts.point(model, n, msgLen, beta, meanRate)
		burst := smooth
		burst.BurstMeanOn, burst.BurstMeanOff = 40, 120
		cfgs = append(cfgs, smooth, burst)
	}
	results, err := runPoints(ctx, cfgs, opts.Workers)
	if err != nil {
		return "", err
	}
	header := []string{"topology", "smooth uni", "bursty uni", "smooth bc", "bursty bc", "bursty penalty"}
	var rows [][]string
	for i, model := range models {
		smooth, burst := results[2*i], results[2*i+1]
		rows = append(rows, []string{
			model,
			fmt.Sprintf("%.1f", smooth.UnicastMean),
			fmt.Sprintf("%.1f", burst.UnicastMean),
			fmt.Sprintf("%.1f", smooth.BcastMean),
			fmt.Sprintf("%.1f", burst.BcastMean),
			fmt.Sprintf("%.2fx", burst.UnicastMean/smooth.UnicastMean),
		})
	}
	return fmt.Sprintf("== bursty vs smooth traffic at equal mean load (%.5f msgs/node/cycle) ==\n", meanRate) +
		plot.Table(header, rows), nil
}

// HotspotComparison stresses both architectures with a hotspot pattern: a
// bias fraction of all unicasts target one node. The Quarc's four dedicated
// ejection paths and balanced links degrade more gracefully than the
// Spidergon's single arbitrated ejection port.
func HotspotComparison(ctx context.Context, n, msgLen int, bias float64, opts RunOpts) (string, error) {
	opts = opts.normalized()
	base := analytic.QuarcUniform(n, msgLen, 0).SaturationRate
	var cfgs []Config // per (model, rate): uniform, then hotspot
	for _, model := range []string{"quarc", "spidergon"} {
		for _, rate := range []float64{0.15 * base, 0.3 * base} {
			uniform := opts.point(model, n, msgLen, 0, rate)
			hot := uniform
			hot.Pattern, hot.HotspotBias = traffic.Hotspot, bias
			cfgs = append(cfgs, uniform, hot)
		}
	}
	results, err := runPoints(ctx, cfgs, opts.Workers)
	if err != nil {
		return "", err
	}
	header := []string{"topology", "rate", "uniform uni", "hotspot uni", "hotspot penalty", "saturated"}
	var rows [][]string
	for i := 0; i < len(results); i += 2 {
		uniform, hot := results[i], results[i+1]
		rows = append(rows, []string{
			cfgs[i].Model, fmt.Sprintf("%.5f", cfgs[i].Rate),
			fmt.Sprintf("%.1f", uniform.UnicastMean),
			fmt.Sprintf("%.1f", hot.UnicastMean),
			fmt.Sprintf("%.2fx", hot.UnicastMean/uniform.UnicastMean),
			fmt.Sprint(hot.Saturated),
		})
	}
	return fmt.Sprintf("== hotspot traffic (bias %.0f%% to node 0) ==\n", bias*100) +
		plot.Table(header, rows), nil
}
