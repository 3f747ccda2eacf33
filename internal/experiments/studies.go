package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"quarc/internal/analytic"
	"quarc/internal/cost"
	"quarc/internal/network"
	"quarc/internal/plot"
	"quarc/internal/router"
	"quarc/internal/traffic"
)

// A Study is one of the paper's evaluation artefacts beyond the Figs 9-11
// panels: a fixed list of design points, simulated by one runner, and a
// title/header/row renderer over their outcomes — or, for the two that are not
// lists of points (Table 1/Fig 12 and the link-load census), a Report.
type Study struct {
	Name    string
	Aliases []string // further names quarcbench -experiment accepts
	Points  func(opts RunOpts) []Config
	// Row renders one table row from Stride (default 1) consecutive outcomes
	// of Points; consecutive rows with the same Title share one table.
	Title  func(g []Outcome) string
	Header []string
	Row    func(g []Outcome) []string
	Stride int
	Report func(opts RunOpts) (string, error)
}

// Outcome is one simulated design point of a study: its Result, whose Cfg is
// the workload as it ran, and the finished fabric's router statistics.
type Outcome struct {
	Result
	Stats router.Stats
}

// The fixed workload of the studies that compare architectures: the network
// and message length of Fig 9's middle panel at the paper's 5% broadcasts.
const (
	studyN      = 16
	studyMsgLen = 16
	studyBeta   = 0.05
)

// Studies is the table of studies, in the order quarcbench reports them.
func Studies() []Study {
	return []Study{
		{Name: "cost", Aliases: []string{"table1", "fig12"},
			Report: func(RunOpts) (string, error) { return RenderCost(), nil }},

		// §3.2: low-load unicast on the Spidergon, mesh and Quarc against the
		// analytical models. Those are accurate well below saturation; wormhole
		// blocking chains (which no M/D/1 channel model captures) dominate
		// beyond ~30% of raw channel capacity, so verification stays below it.
		{Name: "verify",
			Points: func(opts RunOpts) (cfgs []Config) {
				for _, c := range []Config{{Model: "spidergon", N: 16, MsgLen: 8}, {Model: "spidergon", N: 32, MsgLen: 16},
					{Model: "mesh", N: 16, MsgLen: 8}, {Model: "quarc", N: 16, MsgLen: 8}, {Model: "quarc", N: 32, MsgLen: 16}} {
					sat, _ := analytic.SaturationRate(c.Model, c.N, c.MsgLen)
					for _, frac := range []float64{0.08, 0.15, 0.25} {
						cfgs = append(cfgs, opts.point(c.Model, c.N, c.MsgLen, 0, sat*frac))
					}
				}
				return cfgs
			},
			Title:  func([]Outcome) string { return "simulator vs analytical model (paper §3.2 verification)" },
			Header: []string{"topology", "N", "M", "rate", "simulated", "model", "err %"},
			Row: func(g []Outcome) []string {
				o := g[0]
				pred, errPc := modelError(o)
				return []string{o.Cfg.Model, fmt.Sprint(o.Cfg.N), fmt.Sprint(o.Cfg.MsgLen),
					fmt.Sprintf("%.5f", o.Cfg.Rate), fmt.Sprintf("%.2f", o.UnicastMean),
					fmt.Sprintf("%.2f", pred), fmt.Sprintf("%+.1f", errPc)}
			}},

		// The modification ladder at a fixed moderate load: full Quarc, minus
		// true broadcast (chain), minus all-port queues (single queue), and
		// the Spidergon baseline.
		{Name: "ablation",
			Points: func(opts RunOpts) (cfgs []Config) {
				for _, model := range []string{"quarc", "quarc-chainbcast", "quarc-1queue", "spidergon"} {
					cfgs = append(cfgs, opts.point(model, studyN, studyMsgLen, studyBeta, 0.008))
				}
				return cfgs
			},
			Title: func(g []Outcome) string {
				c := g[0].Cfg
				return fmt.Sprintf("ablation of the Quarc modifications (N=%d M=%d beta=%.0f%% rate=%.4f)",
					c.N, c.MsgLen, c.Beta*100, c.Rate)
			},
			Header: []string{"variant", "bcast latency", "unicast latency", "saturated"},
			Row: func(g []Outcome) []string {
				o := g[0]
				return []string{o.Cfg.Model, fmt.Sprintf("%.1f", o.BcastMean),
					fmt.Sprintf("%.1f", o.UnicastMean), fmt.Sprint(o.Saturated)}
			}},

		// §4's future work: Quarc versus mesh and torus at equal node count
		// under uniform traffic with broadcasts.
		{Name: "mesh",
			Points: func(opts RunOpts) (cfgs []Config) {
				base, _ := analytic.SaturationRate("quarc", studyN, studyMsgLen)
				derate := 1 + studyBeta*float64(studyN)/4
				for _, model := range []string{"quarc", "mesh", "torus"} {
					for _, frac := range []float64{0.15, 0.35, 0.55} {
						cfgs = append(cfgs, opts.point(model, studyN, studyMsgLen, studyBeta, frac*base/derate))
					}
				}
				return cfgs
			},
			Title: func(g []Outcome) string {
				c := g[0].Cfg
				return fmt.Sprintf("quarc vs mesh/torus (N=%d M=%d beta=%.0f%%)", c.N, c.MsgLen, c.Beta*100)
			},
			Header: []string{"topology", "rate", "unicast", "bcast", "throughput", "saturated"},
			Row: func(g []Outcome) []string {
				o, bc := g[0], "-"
				if o.BcastCount > 0 {
					bc = fmt.Sprintf("%.1f", o.BcastMean)
				}
				return []string{o.Cfg.Model, fmt.Sprintf("%.5f", o.Cfg.Rate), fmt.Sprintf("%.1f", o.UnicastMean),
					bc, fmt.Sprintf("%.3f", o.Throughput), fmt.Sprint(o.Saturated)}
			}},

		{Name: "linkload", Report: func(opts RunOpts) (string, error) { return LinkLoadBalance(16, 2, 0.01, opts) }},

		// The stall breakdown under one uniform workload explains *where* the
		// Spidergon loses: its shared cross link and single ejection port turn
		// into arbitration and credit stalls well before the rim saturates.
		{Name: "contention",
			Points: func(opts RunOpts) []Config {
				return []Config{
					opts.point("quarc", studyN, studyMsgLen, studyBeta, 0.012),
					opts.point("spidergon", studyN, studyMsgLen, studyBeta, 0.012),
				}
			},
			Title: func([]Outcome) string { return "stall breakdown under identical load" },
			Header: []string{"topology", "grants", "no-credit", "vc-busy", "arb-lost",
				"stall/grant", "mean buf occupancy"},
			Row: func(g []Outcome) []string {
				o, st := g[0], g[0].Stats
				return []string{o.Cfg.Model, fmt.Sprint(st.Grants), fmt.Sprint(st.Stalls[router.StallNoCredit]),
					fmt.Sprint(st.Stalls[router.StallVCBusy]), fmt.Sprint(st.Stalls[router.StallArbLost]),
					fmt.Sprintf("%.3f", stallRatio(st)), fmt.Sprintf("%.2f", st.MeanOccupancy()/float64(o.Cfg.N))}
			}},

		// Latency versus VC buffer depth, a table per model: the one free
		// parameter the paper leaves open ("The buffers in the design are
		// parametrized in width and depth", §2.3.1).
		{Name: "depth",
			Points: func(opts RunOpts) (cfgs []Config) {
				for _, model := range []string{"quarc", "spidergon"} {
					for _, depth := range []int{1, 2, 4, 8, 16} {
						cfg := opts.point(model, studyN, studyMsgLen, studyBeta, 0.012)
						cfg.Depth = depth
						cfgs = append(cfgs, cfg)
					}
				}
				return cfgs
			},
			Title:  func(g []Outcome) string { return fmt.Sprintf("buffer depth ablation (%s)", g[0].Cfg.Model) },
			Header: []string{"buffer depth", "unicast", "broadcast", "saturated"},
			Row: func(g []Outcome) []string {
				o := g[0]
				return []string{fmt.Sprint(o.Cfg.Depth), fmt.Sprintf("%.1f", o.UnicastMean),
					fmt.Sprintf("%.1f", o.BcastMean), fmt.Sprint(o.Saturated)}
			}},

		// ON/OFF bursts (~40 cycles at 4x concentration, off 120) against a
		// smooth source at the same mean load, per model a smooth then a bursty
		// point: the paper's §1 point that burstiness "exacerbates" the
		// Spidergon's imbalance. The bursty points ride Config.BurstMeanOn/Off,
		// the same code a wire-API bursty run exercises.
		{Name: "bursty", Stride: 2,
			Points: func(opts RunOpts) (cfgs []Config) {
				base, _ := analytic.SaturationRate("quarc", studyN, studyMsgLen)
				meanRate := 0.25 * base / (1 + 7*studyBeta)
				for _, model := range []string{"quarc", "spidergon"} {
					smooth := opts.point(model, studyN, studyMsgLen, studyBeta, meanRate)
					burst := smooth
					burst.BurstMeanOn, burst.BurstMeanOff = 40, 120
					cfgs = append(cfgs, smooth, burst)
				}
				return cfgs
			},
			Title: func(g []Outcome) string {
				return fmt.Sprintf("bursty vs smooth traffic at equal mean load (%.5f msgs/node/cycle)", g[0].Cfg.Rate)
			},
			Header: []string{"topology", "smooth uni", "bursty uni", "smooth bc", "bursty bc", "bursty penalty"},
			Row: func(g []Outcome) []string {
				smooth, burst := g[0], g[1]
				return []string{smooth.Cfg.Model, fmt.Sprintf("%.1f", smooth.UnicastMean),
					fmt.Sprintf("%.1f", burst.UnicastMean), fmt.Sprintf("%.1f", smooth.BcastMean),
					fmt.Sprintf("%.1f", burst.BcastMean), fmt.Sprintf("%.2fx", burst.UnicastMean/smooth.UnicastMean)}
			}},

		// 30% of all unicasts to node 0, per (model, rate) a uniform then a
		// hotspot point: the Quarc's four dedicated ejection paths degrade
		// more gracefully than the Spidergon's single arbitrated port.
		{Name: "hotspot", Stride: 2,
			Points: func(opts RunOpts) (cfgs []Config) {
				base, _ := analytic.SaturationRate("quarc", studyN, studyMsgLen)
				for _, model := range []string{"quarc", "spidergon"} {
					for _, rate := range []float64{0.15 * base, 0.3 * base} {
						uniform := opts.point(model, studyN, studyMsgLen, 0, rate)
						hot := uniform
						hot.Pattern, hot.HotspotBias = traffic.Hotspot, 0.3
						cfgs = append(cfgs, uniform, hot)
					}
				}
				return cfgs
			},
			Title: func(g []Outcome) string {
				return fmt.Sprintf("hotspot traffic (bias %.0f%% to node 0)", g[1].Cfg.HotspotBias*100)
			},
			Header: []string{"topology", "rate", "uniform uni", "hotspot uni", "hotspot penalty", "saturated"},
			Row: func(g []Outcome) []string {
				uniform, hot := g[0], g[1]
				return []string{uniform.Cfg.Model, fmt.Sprintf("%.5f", uniform.Cfg.Rate),
					fmt.Sprintf("%.1f", uniform.UnicastMean), fmt.Sprintf("%.1f", hot.UnicastMean),
					fmt.Sprintf("%.2fx", hot.UnicastMean/uniform.UnicastMean), fmt.Sprint(hot.Saturated)}
			}},
	}
}

// Run is the one runner of the table: it simulates the study's design points
// across opts.Workers goroutines, each outcome in its point's slot so that
// nothing depends on the worker count, and renders them. A Report study has
// no outcomes. A cancelled ctx aborts the run.
func (s Study) Run(ctx context.Context, opts RunOpts) (string, []Outcome, error) {
	if err := ctx.Err(); err != nil {
		return "", nil, err
	}
	if s.Report != nil {
		text, err := s.Report(opts)
		return text, nil, err
	}
	opts = opts.normalized()
	cfgs := s.Points(opts)
	outs := make([]Outcome, len(cfgs))
	err := Fan(ctx, len(cfgs), opts.Workers, func(i int) (err error) {
		observed := withFabricObserver(ctx, func(fab *network.Fabric) { outs[i].Stats = fab.RouterStats() })
		outs[i].Result, err = runPointGuarded(observed, cfgs[i])
		return err
	})
	if err != nil {
		return "", nil, err
	}
	var tables []string
	var title string
	var rows [][]string
	table := func() { tables = append(tables, "== "+title+" ==\n"+plot.Table(s.Header, rows)) }
	stride := max(s.Stride, 1)
	for i := 0; i < len(outs); i += stride {
		g := outs[i : i+stride]
		if t := s.Title(g); t != title {
			if rows != nil {
				table()
			}
			title, rows = t, nil
		}
		rows = append(rows, s.Row(g))
	}
	table()
	return strings.Join(tables, "\n"), outs, nil
}

// modelError compares one verify outcome with the analytical model: the
// predicted mean latency and the simulator's signed error against it, in %.
func modelError(o Outcome) (predicted, errPc float64) {
	pred, _ := analytic.ForModel(o.Cfg.Model, o.Cfg.N, o.Cfg.MsgLen, o.Cfg.Rate)
	return pred.MeanLatency, 100 * (o.UnicastMean - pred.MeanLatency) / pred.MeanLatency
}

// stallRatio is the stalls per granted flit.
func stallRatio(st router.Stats) float64 {
	if st.Grants == 0 {
		return 0
	}
	return float64(st.TotalStalls()) / float64(st.Grants)
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
