// Command bench is the repository's one benchmark: five workloads that
// between them cross every layer — the paper's figures, one big design point,
// hot and durable serving through the real quarcd binary, and a design-space
// exploration — measured end to end with tracing off, and, with -trace 1,
// replayed through each layer's public functions with spans recorded from
// this directory's own files. BENCHMARK.json at the repository root is its
// contract; README.md here says why each workload and metric exists. Four of
// the five workloads are in the contract; serve_durable runs and is checked
// like the others, but its times are the host disk's, so nothing bounds them.
//
//	go run ./bench                              # all five workloads, end-to-end metrics
//	go run ./bench -trace 1                     # all five, per-layer metrics + span files
//	go run ./bench -workload serve_hot -seed 7  # one workload (what the driver runs)
//	go run ./bench -compare a.json b.json       # two result sets against the bounds
//	go run ./bench -update-golden               # rewrite golden.json for -seed 1
//
// Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workloads in the order a full run executes them.
var workloads = []struct {
	name   string
	run    func(*env) (*report, error)
	daemon bool // needs the quarcd binary
}{
	{"paper_figs", paperFigs, false},
	{"big_mesh", bigMeshPoint, false},
	{"serve_hot", serveHot, true},
	{"serve_durable", serveDurable, true},
	{"explore_front", exploreFront, true},
}

// goldenSeed is the only seed whose payload digests are committed.
const goldenSeed = 1

func main() {
	var (
		workload     = flag.String("workload", "", "run one workload (default: all five in turn)")
		seed         = flag.Uint64("seed", goldenSeed, "workload seed: every generated input derives from it")
		secs         = flag.Int("seconds", 24, "seconds of timed work per workload (each runs at least three windows)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced replay")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/golden.json from this run (needs -seed 1, all workloads, -trace 0)")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	if flag.NArg() > 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, time.Duration(*secs)*time.Second, *trace == 1, *updateGolden))
}

// run executes the selected workloads and returns the process exit code. All
// clean-up hangs off the janitor, which runs on return, on panic and on
// SIGINT/SIGTERM.
func run(only string, seed uint64, budget time.Duration, traced, updateGolden bool) (code int) {
	if b, err := os.ReadFile("go.mod"); err != nil || !strings.HasPrefix(string(b), "module quarc") {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (go run ./bench)")
		return 2
	}
	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	jan := &janitor{}
	defer jan.sweep() // deferred calls run on a panic too
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		jan.sweep()
		os.Exit(130)
	}()

	if updateGolden && (only != "" || seed != goldenSeed || traced) {
		fmt.Fprintln(os.Stderr, "bench: -update-golden needs all workloads, -seed 1 and -trace 0")
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	promised, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	host := fingerprint(outDir)
	var results []result
	var quarcd string // built once, on the first workload that needs it
	var buildS float64
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		if (w.daemon || traced) && quarcd == "" {
			if quarcd, buildS, err = buildDaemon(outDir); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		e := &env{workload: w.name, seed: seed, budget: budget, outDir: outDir, jan: jan, quarcd: quarcd, buildS: buildS}
		var res result
		if traced {
			res, err = runTraced(e)
		} else {
			res, err = runUntraced(e, w.run, golden, updateGolden)
		}
		jan.sweep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if bad := promised.mismatch(res.Metrics, traced); len(bad) > 0 {
			res.Correct = false
			res.Failures = append(res.Failures, bad...)
		}
		res.Host = host
		res.Unbounded = !traced && !promised.bounded(w.name)
		res.print(os.Stdout)
		results = append(results, res)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", only)
		return 2
	}
	if updateGolden {
		if err := golden.save(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println("wrote", goldenPath)
	}

	name := "results.json"
	if traced {
		name = "results-trace.json"
	}
	if only != "" {
		name = strings.TrimSuffix(name, ".json") + "-" + only + ".json"
	}
	if b, err := json.MarshalIndent(results, "", "  "); err == nil {
		err = os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println("results written to", filepath.Join(outDir, name))
	}

	// The driver's contract: the last line of stdout is one JSON object with
	// exactly these keys. A full run merges the workloads, prefixing names.
	last := contractLine{Correct: true, Metrics: map[string]metric{}}
	for _, res := range results {
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		for k, m := range res.Metrics {
			if only == "" {
				k = res.Workload + "." + k
			}
			last.Metrics[k] = m
		}
	}
	b, _ := json.Marshal(last)
	fmt.Println(string(b))
	if !last.Correct {
		return 1
	}
	return 0
}

type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDaemon compiles cmd/quarcd into bench/out/bin. The go build is timed
// on its own and is not part of setup_s.
func buildDaemon(outDir string) (bin string, buildS float64, err error) {
	if bin, err = filepath.Abs(filepath.Join(outDir, "bin", "quarcd")); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/quarcd").CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/quarcd: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// runUntraced measures one workload end to end and applies the correctness
// gate: the workload's own checks, plus the golden digest on the golden seed.
func runUntraced(e *env, fn func(*env) (*report, error), g *goldenFile, update bool) (result, error) {
	r, err := fn(e)
	if err != nil {
		return result{}, err
	}
	if e.seed == goldenSeed {
		if update {
			g.Digests[r.Workload] = r.digest.hex()
		} else {
			want, ok := g.Digests[r.Workload]
			r.check(ok && want == r.digest.hex(), "payload digest %s differs from %s (%s)", r.digest.hex(), goldenPath, want)
		}
	}
	res := result{
		Workload: r.Workload, Seed: e.seed, Traced: false,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.endToEnd(), Extras: r.extras(), Failures: r.failures,
		Digest: r.digest.hex(), Windows: len(r.windows), BuildS: e.buildS,
	}
	for _, w := range r.windows {
		res.Samples += len(w.lat)
	}
	return res, nil
}
