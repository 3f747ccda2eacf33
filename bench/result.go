package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// result is one workload's outcome as written to bench/out/results*.json
// (what -compare reads) and printed for people.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Extras    map[string]float64 `json:"extras,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Windows   int                `json:"windows"`
	Samples   int                `json:"latency_samples"`
	BuildS    float64            `json:"quarcd_build_s"`
	Unbounded bool               `json:"unbounded,omitempty"` // not a BENCHMARK.json workload: measured, never judged
	Host      hostInfo           `json:"host"`
}

// hostInfo is the fingerprint printed with every result, so a number is never
// read without the machine and the load shape it came from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	DataFS     string `json:"data_dir_fs"`
	Commit     string `json:"commit"`
	Loop       string `json:"loop"`
	Clients    int    `json:"clients"`
	Transport  string `json:"transport"`
}

func fingerprint(outDir string) hostInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: cpuModel(), DataFS: fsType(outDir), Commit: commit,
		Loop: "closed", Clients: loopClients, Transport: "loopback TCP, keep-alive",
	}
}

// unitOf documents the per-workload meaning of the shared metrics' units of
// work for the human output.
var unitOf = map[string]string{
	"paper_figs":    "op = design point, reply = one panel (RunPanelContext)",
	"big_mesh":      "op = reply = the one design point (RunContext)",
	"serve_hot":     "op = reply = one POST /v1/runs?wait=1 answered from memory",
	"serve_durable": "op = reply = one write-phase POST /v1/runs?wait=1 (simulate, store, journal)",
	"explore_front": "op = lattice point, reply = the cold POST /v1/explore?wait=1",
}

func (res result) print(w io.Writer) {
	mode := "end to end, tracing off"
	if res.Traced {
		mode = "per layer, traced replay"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d ==\n", res.Workload, mode, res.Seed)
	h := res.Host
	fmt.Fprintf(w, "host: nproc %d GOMAXPROCS %d %s | %s | data dir on %s | commit %s\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.CPU, h.DataFS, h.Commit)
	fmt.Fprintf(w, "load: %s loop, %d clients, %s; latencies are this sandbox's host time, not a device's\n",
		h.Loop, h.Clients, h.Transport)
	if !res.Traced {
		fmt.Fprintf(w, "unit: %s; %d windows, %d reply latencies\n", unitOf[res.Workload], res.Windows, res.Samples)
	}
	if res.Unbounded {
		fmt.Fprintln(w, "note: not in BENCHMARK.json: these times follow the host disk's fsync latency, so no bound judges them")
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(res.Extras) {
		fmt.Fprintf(w, "  (%s)%*s %14.6g\n", k, 38-len(k), "", res.Extras[k])
	}
	fmt.Fprintf(w, "  quarcd go build %.2f s (not in setup_s); payload digest %.16s\n", res.BuildS, res.Digest)
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  fail_ratio %g (%d failed / %d attempted)\n", ratio, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}

// goldenFile holds the SHA-256 chain of every workload's result payloads for
// the golden seed. The simulator is deterministic, so the digests repeat
// exactly on any host and two commits compare exactly.
type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

var goldenPath = filepath.Join("bench", "golden.json")

func loadGolden() (*goldenFile, error) {
	g := &goldenFile{Seed: goldenSeed, Digests: map[string]string{}}
	b, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func (g *goldenFile) save() error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
