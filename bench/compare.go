package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contract is the part of BENCHMARK.json the benchmark reads back: the
// workloads whose end-to-end metrics are bounded, the names every run must
// report, and for -compare each end-to-end metric's direction and the share
// of the first value by which the second may differ.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// bounded reports whether BENCHMARK.json lists the workload. serve_durable is
// not listed: its times are the host disk's fsync latency (README, "Why
// serve_durable is measured but not bounded"), so it is printed beside the
// others and never judged.
func (c contract) bounded(workload string) bool {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract() (contract, error) {
	var c contract
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	if err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// mismatch lists the ways a run's metrics depart from the names and units
// BENCHMARK.json promises for its mode.
func (c contract) mismatch(got map[string]metric, traced bool) []string {
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	var out []string
	seen := make(map[string]bool, len(want))
	for _, m := range want {
		seen[m.Name] = true
		if g, ok := got[m.Name]; !ok {
			out = append(out, "BENCHMARK.json metric "+m.Name+" was not measured")
		} else if g.Unit != m.Unit {
			out = append(out, fmt.Sprintf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit))
		}
	}
	for _, name := range sortedKeys(got) {
		if !seen[name] {
			out = append(out, "metric "+name+" is not in BENCHMARK.json")
		}
	}
	return out
}

func readResults(path string) (map[string]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result, len(rs))
	for _, r := range rs {
		out[r.Workload] = r
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// relative difference of b against a and the bound from BENCHMARK.json. It
// returns 1 when any pair of a bounded workload differs by more than its
// bound in either direction (two sets of the same code must agree; a
// before/after shows which way), or when a result is incorrect or missing.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, w := range workloads {
		ra, okA := a[w.name]
		rb, okB := b[w.name]
		if !okA && !okB {
			continue
		}
		if !okA || !okB || !ra.Correct || !rb.Correct {
			fmt.Printf("%-14s missing or incorrect in one of the files\n", w.name)
			code = 1
			continue
		}
		for _, m := range c.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			if va == 0 {
				fmt.Printf("%-14s %-16s missing\n", w.name, m.Name)
				code = 1
				continue
			}
			diff := (vb - va) / va
			if !c.bounded(w.name) {
				fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.2f%% %7s\n", w.name, m.Name, va, vb, 100*diff, "none")
				continue
			}
			verdict := ""
			if diff > m.Bound || diff < -m.Bound {
				worse := (diff > 0) == (m.Better == "lower")
				verdict = "  BETTER beyond the bound"
				if worse {
					verdict = "  WORSE beyond the bound"
				}
				code = 1
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
