package experiments

import (
	"fmt"
	"strings"

	"quarc/internal/analytic"
	"quarc/internal/plot"
	"quarc/internal/stats"
	"quarc/internal/traffic"
)

// PanelSpec is one panel of Figs 9-11: a (N, M, beta) configuration swept
// over offered message rates.
type PanelSpec struct {
	Figure string
	Name   string
	N      int
	MsgLen int
	Beta   float64
	Rates  []float64 // offered loads; if nil, a grid is derived from the
	// analytic channel-capacity bound

	// Models lists the registry names of the architectures to sweep, in
	// curve order. Empty means the paper's fixed quarc/spidergon pair —
	// with the exact canonical cache keys and bit-identical results such
	// panels had before the field existed.
	Models []string

	// Pattern and HotspotBias shape the unicast traffic of every point in
	// the sweep; the zero values are the paper's uniform workload.
	Pattern     traffic.Pattern
	HotspotBias float64

	// McastFrac/McastSize send that fraction of non-broadcast messages as
	// k-target multicasts at every point (see Config).
	McastFrac float64
	McastSize int
}

// SweptModels returns the canonical (lower-case) model list this panel
// sweeps: the Models field, or the legacy quarc/spidergon pair when empty.
// Duplicate names collapse onto their first occurrence — results are keyed
// by model name, so a repeated entry could only corrupt the panel layout,
// never add information.
func (spec PanelSpec) SweptModels() []string {
	if len(spec.Models) == 0 {
		return legacyPanelModels
	}
	out := make([]string, 0, len(spec.Models))
	seen := make(map[string]bool, len(spec.Models))
	for _, m := range spec.Models {
		name := strings.ToLower(m)
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// Collectives reports whether the panel's workload generates collective
// (broadcast or multicast) traffic, i.e. whether collective latency curves
// exist to plot.
func (spec PanelSpec) Collectives() bool { return spec.Beta > 0 || spec.McastFrac > 0 }

// RunOpts scales the simulation effort and the sweep execution.
type RunOpts struct {
	Warmup  int64
	Measure int64
	Drain   int64
	Depth   int
	Seed    uint64
	Points  int // rate-grid points when PanelSpec.Rates is nil
	// Replicates is the number of independent simulations per design point
	// (distinct derived seeds, aggregated as mean ± 95% CI). 0 means 1.
	Replicates int
	// Workers bounds the sweep goroutines; 0 means GOMAXPROCS. The result
	// does not depend on it.
	Workers int
	// StepWorkers sizes each point's intra-fabric worker pool (see
	// Config.StepWorkers). 0 picks automatically: serial points under a
	// multi-worker sweep (outer parallelism wins for many small points),
	// fabric auto-sizing for single-worker sweeps (inner parallelism wins
	// for few large ones). The result does not depend on it, and like
	// Workers it stays out of canonical cache keys.
	StepWorkers int `json:"-"`
	// OnPointDone, if non-nil, is invoked as each design point of a sweep
	// completes — possibly concurrently from several worker goroutines. It
	// observes progress only; the sweep's results never depend on it.
	OnPointDone func(PointDone) `json:"-"`
}

// DefaultOpts is the full-fidelity configuration used by cmd/quarcbench.
func DefaultOpts() RunOpts {
	return RunOpts{Warmup: 3000, Measure: 12000, Drain: 40000, Depth: 4, Seed: 20090523, Points: 10}
}

// FastOpts is a reduced configuration for tests and -fast runs.
func FastOpts() RunOpts {
	return RunOpts{Warmup: 500, Measure: 2500, Drain: 10000, Depth: 4, Seed: 20090523, Points: 5}
}

// rateGrid derives offered loads from the analytic capacity bound of the
// Quarc under the panel's message length, spanning from deep stability to
// just past the Quarc's empirical saturation (the Spidergon saturates
// earlier, mid-grid, exactly as in the paper's figures).
//
// Two corrections scale the channel-capacity bound to the empirical knee:
// wormhole switching with two VCs and shallow buffers sustains roughly half
// of raw channel capacity (blocking chains), and each broadcast multiplies
// rim-link occupancy: a BRCP branch set occupies about half the rim links
// for M cycles, giving a (1-beta) + beta*N/2 / (N/16) = 1 + 7*beta load
// multiplier relative to unicast-only traffic.
func rateGrid(spec PanelSpec, points int) []float64 {
	base, _ := analytic.SaturationRate("quarc", spec.N, spec.MsgLen)
	derate := 1 + 7*spec.Beta
	top := 0.6 * base / derate
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = top * float64(i+1) / float64(points)
	}
	return grid
}

// Fig9Panels: N = 16, beta = 5%, M in {8, 16, 32} (paper Fig 9).
func Fig9Panels() []PanelSpec {
	var out []PanelSpec
	for _, m := range []int{8, 16, 32} {
		out = append(out, PanelSpec{
			Figure: "fig9", Name: fmt.Sprintf("N=16 beta=5%% M=%d", m),
			N: 16, MsgLen: m, Beta: 0.05,
		})
	}
	return out
}

// Fig10Panels: M = 16, beta = 10%, N in {16, 32, 64} (paper Fig 10).
func Fig10Panels() []PanelSpec {
	var out []PanelSpec
	for _, n := range []int{16, 32, 64} {
		out = append(out, PanelSpec{
			Figure: "fig10", Name: fmt.Sprintf("N=%d beta=10%% M=16", n),
			N: n, MsgLen: 16, Beta: 0.10,
		})
	}
	return out
}

// Fig11Panels: N = 64, M = 16, beta in {0, 5, 10}% (paper Fig 11).
func Fig11Panels() []PanelSpec {
	var out []PanelSpec
	for _, beta := range []float64{0, 0.05, 0.10} {
		out = append(out, PanelSpec{
			Figure: "fig11", Name: fmt.Sprintf("N=64 beta=%.0f%% M=16", beta*100),
			N: 64, MsgLen: 16, Beta: beta,
		})
	}
	return out
}

// PanelResult is the measured panel: one unicast (and, with collective
// traffic, one collective-completion) latency curve per swept model, keyed
// by canonical model name. Results holds the replicate-aggregated
// measurement per swept rate; Raw keeps the individual replicate results
// ([rate index][replicate]). RunPanel in sweep.go produces it.
type PanelResult struct {
	Spec       PanelSpec
	Models     []string // canonical model names, in sweep (and curve) order
	Results    map[string][]Result
	Raw        map[string][][]Result
	RatesSwept []float64
	Replicates int
}

// UnicastSeries returns the mean unicast latency curve of one swept model.
func (pr PanelResult) UnicastSeries(model string) stats.Series {
	return pr.series(model, " unicast", func(r Result) float64 { return r.UnicastMean })
}

// CollectiveSeries returns the collective (broadcast/multicast) completion
// latency curve of one swept model.
func (pr PanelResult) CollectiveSeries(model string) stats.Series {
	return pr.series(model, " broadcast", func(r Result) float64 { return r.BcastMean })
}

func (pr PanelResult) series(model, suffix string, get func(Result) float64) stats.Series {
	s := stats.Series{Name: model + suffix}
	for i, r := range pr.Results[model] {
		s.Append(pr.RatesSwept[i], get(r), r.Saturated)
	}
	return s
}

// curveMarkers assigns each model a distinct single-character marker (its
// unicast curve; the upper-case form marks the collective curve). It prefers
// the first letter not already taken, falling back to digits.
func curveMarkers(models []string) []byte {
	marks := make([]byte, len(models))
	taken := map[byte]bool{}
	for i, m := range models {
		var mark byte
		for j := 0; j < len(m); j++ {
			c := m[j]
			if c >= 'a' && c <= 'z' && !taken[c] {
				mark = c
				break
			}
		}
		for d := byte('0'); mark == 0 && d <= '9'; d++ {
			if !taken[d] {
				mark = d
			}
		}
		if mark == 0 {
			mark = '*'
		}
		taken[mark] = true
		marks[i] = mark
	}
	return marks
}

// collectiveMarker is the marker of a model's collective curve: the
// upper-case twin of its unicast marker when that is a letter.
func collectiveMarker(mark byte) byte {
	if mark >= 'a' && mark <= 'z' {
		return mark &^ 0x20
	}
	return mark
}

// Render formats the panel as the paper-style rows plus an ASCII chart, one
// latency curve (with CI whiskers under replication) per swept model.
func (pr PanelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", pr.Spec.Figure, pr.Spec.Name)
	header := []string{"rate"}
	for _, m := range pr.Models {
		header = append(header, m+" uni", m+" bc")
	}
	for _, m := range pr.Models {
		header = append(header, m+" sat")
	}
	var rows [][]string
	for i, rate := range pr.RatesSwept {
		row := []string{fmt.Sprintf("%.5f", rate)}
		cell := func(v, ci float64, n int64) string {
			if n == 0 {
				return "-"
			}
			// ci == 0 under replication means the interval is undefined
			// (fewer than two replicates measured this class); don't dress
			// a single-sample estimate up as a zero-width CI.
			if pr.Replicates > 1 && ci > 0 {
				return fmt.Sprintf("%.1f±%.1f", v, ci)
			}
			return fmt.Sprintf("%.1f", v)
		}
		for _, m := range pr.Models {
			r := pr.Results[m][i]
			row = append(row,
				cell(r.UnicastMean, r.UnicastCI, r.UnicastCount),
				cell(r.BcastMean, r.BcastCI, r.BcastCount))
		}
		for _, m := range pr.Models {
			row = append(row, fmt.Sprintf("%v", pr.Results[m][i].Saturated))
		}
		rows = append(rows, row)
	}
	b.WriteString(plot.Table(header, rows))
	// With replicates, the across-replicate 95% CIs become chart whiskers.
	ciOf := func(rs []Result, bc bool) []float64 {
		if pr.Replicates < 2 {
			return nil
		}
		out := make([]float64, len(rs))
		for i, r := range rs {
			if bc {
				out[i] = r.BcastCI
			} else {
				out[i] = r.UnicastCI
			}
		}
		return out
	}
	marks := curveMarkers(pr.Models)
	var curves []plot.Curve
	for i, m := range pr.Models {
		s := pr.UnicastSeries(m)
		curves = append(curves, plot.Curve{
			Name: s.Name, X: s.X, Y: s.Y, Err: ciOf(pr.Results[m], false), Marker: marks[i]})
	}
	if pr.Spec.Collectives() {
		for i, m := range pr.Models {
			s := pr.CollectiveSeries(m)
			curves = append(curves, plot.Curve{
				Name: s.Name, X: s.X, Y: s.Y, Err: ciOf(pr.Results[m], true),
				Marker: collectiveMarker(marks[i])})
		}
	}
	b.WriteString(plot.Chart("latency (cycles) vs offered rate (msgs/node/cycle)", curves, 60, 14))
	return b.String()
}
