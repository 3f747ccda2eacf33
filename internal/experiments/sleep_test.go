package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
)

// sleepScheduleGolden pins which switches the fabric stepped and how often
// they went to sleep holding flits, on every registered model at a low and a
// saturated load. The spec-equivalence suites prove that sleeping is
// invisible in the results, so only this file notices a change that keeps
// the results and loses the sleep, and with it the stepping work the
// activity set saves.
const sleepScheduleGolden = "testdata/sleep-schedule.golden"

// sleepScheduleCases is the matrix: every model at 64 nodes, stepped
// serially, and the square models at 256 nodes on two step workers.
func sleepScheduleCases() []Config {
	low := Config{MsgLen: 8, Rate: 0.005, Beta: 0.05, Depth: 4, Warmup: 100, Measure: 400, Drain: 2000, Seed: 11}
	sat := low
	sat.Rate, sat.Beta = 0.15, 0
	var cases []Config
	for _, name := range model.Names() {
		m, _ := model.Lookup(name)
		for _, load := range []Config{low, sat} {
			load.Model, load.N, load.StepWorkers = name, 64, 1
			cases = append(cases, load)
			if m.CheckN != nil && m.CheckN(256) == nil {
				load.N, load.StepWorkers, load.stepGrain = 256, 2, 1
				cases = append(cases, load)
			}
		}
	}
	return cases
}

// TestSleepScheduleMatchesParent: every case's SteppedRouters and
// BlockedSleeps equal the golden file's. Refresh it deliberately with
// -update.
func TestSleepScheduleMatchesParent(t *testing.T) {
	var got []string
	for _, cfg := range sleepScheduleCases() {
		var stepped, sleeps uint64
		ctx := withFabricObserver(context.Background(), func(fab *network.Fabric) {
			stepped, sleeps = fab.SteppedRouters(), fab.BlockedSleeps()
		})
		if _, err := RunContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s/%d/rate=%g/workers=%d stepped=%d blocked-sleeps=%d",
			cfg.ModelName(), cfg.N, cfg.Rate, cfg.StepWorkers, stepped, sleeps))
	}
	path := filepath.FromSlash(sleepScheduleGolden)
	if *updateRouterStats {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d cases, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("sleep schedule diverged from the golden file:\ngot  %s\nwant %s", got[i], want[i])
		}
	}
}
