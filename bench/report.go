package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// env is what every workload gets: where it may write, which binary to
// start, the seed its inputs derive from and how long to keep measuring.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration // -seconds: windows repeat until this has elapsed
	outDir   string        // bench/out
	quarcd   string        // built cmd/quarcd binary ("" on batch workloads, which start no daemon)
	jan      *janitor
	buildS   float64 // go build of quarcd, reported apart from setup_s
}

// minWindows is the fewest equal repeats any reported median is taken over.
const minWindows = 3

// maxWindows bounds a run whose windows turn out much shorter than planned.
const maxWindows = 64

// window is one equal repeat of a workload's timed region.
type window struct {
	wall    time.Duration   // the whole repeat, every phase
	primary time.Duration   // the phase ops and lat describe
	ops     int             // operations (design points or requests) completed in primary
	lat     []time.Duration // what each caller waited for one reply in primary
	cycles  int64           // simulated cycles in primary (0 when nothing simulates)
	extra   map[string]float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one workload's measurements and correctness tallies.
type report struct {
	Workload string
	setups   []time.Duration
	windows  []window

	attempted, failed int
	failures          []string // first few, for the human output

	digest  chain // running digest of result payloads
	peakRSS float64
}

func newReport(name string) *report { return &report{Workload: name} }

// more reports whether another window should run: at least minWindows, then
// until the -seconds budget of timed work is spent.
func (r *report) more(e *env) bool {
	if len(r.windows) < minWindows {
		return true
	}
	if len(r.windows) >= maxWindows {
		return false
	}
	return r.spent() < e.budget
}

// spent is the timed work done so far.
func (r *report) spent() (d time.Duration) {
	for _, w := range r.windows {
		d += w.wall
	}
	return d
}

// ops counts n attempted operations of which bad failed.
func (r *report) ops(n, bad int, first error) {
	r.attempted += n
	r.failed += bad
	if bad > 0 && first != nil {
		r.fail("%d of %d operations failed; first: %v", bad, n, first)
	}
}

// check counts one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.fail(format, args...)
	}
}

func (r *report) fail(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// chain is a running SHA-256 over a sequence of result payloads; order
// matters, so callers fold in a deterministic order.
type chain [sha256.Size]byte

func (c *chain) fold(payload []byte) {
	h := sha256.New()
	h.Write(c[:])
	h.Write(payload)
	h.Sum(c[:0])
}

func (c chain) hex() string { return hex.EncodeToString(c[:]) }

// endToEnd derives the metrics every workload reports. Each is the median
// over the run's equal windows (set-up: over its equal repeats).
func (r *report) endToEnd() map[string]metric {
	var wall, rate, p50, p99 []float64
	for _, w := range r.windows {
		wall = append(wall, w.wall.Seconds())
		rate = append(rate, float64(w.ops)/w.primary.Seconds())
		s := sortedCopy(w.lat)
		m, _ := percentile(s, 0.50)
		p50 = append(p50, millis(m))
		// With too few replies in a window for any tail percentile, the
		// tail is the median: the caller's one reply is the whole window.
		if t, err := percentile(s, 0.99); err == nil {
			p99 = append(p99, millis(t))
		} else {
			p99 = append(p99, millis(m))
		}
	}
	return map[string]metric{
		"setup_s":        {medianDur(r.setups).Seconds(), "s"},
		"wall_s":         {median(wall), "s"},
		"ops_per_s":      {median(rate), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p99_ms": {median(p99), "ms"},
		"peak_rss_mb":    {r.peakRSS, "MiB"},
	}
}

// extras are the workload-specific numbers (read-phase latencies, overlap
// wall time, simulated cycles per host second, ...): medians over windows of
// whatever the windows recorded. They are printed and written to the result
// file; BENCHMARK.json bounds only the metrics every workload shares.
func (r *report) extras() map[string]float64 {
	vals := make(map[string][]float64)
	for _, w := range r.windows {
		for k, v := range w.extra {
			vals[k] = append(vals[k], v)
		}
		if w.cycles > 0 {
			vals["sim_cycles_per_s"] = append(vals["sim_cycles_per_s"], float64(w.cycles)/w.primary.Seconds())
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	// How far the windows of this one run disagree: with the run-to-run
	// spread, it tells interference inside a run from drift between runs.
	lo, hi := math.Inf(1), 0.0
	for _, w := range r.windows {
		lo, hi = math.Min(lo, w.wall.Seconds()), math.Max(hi, w.wall.Seconds())
	}
	out["window_wall_min_s"], out["window_wall_max_s"] = lo, hi
	set := sortedCopy(r.setups)
	out["setup_min_s"], out["setup_max_s"] = set[0].Seconds(), set[len(set)-1].Seconds()
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
