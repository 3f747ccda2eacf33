package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/traffic"
)

var updateRouterStats = flag.Bool("update", false, "rewrite testdata/router-stats.golden and testdata/sleep-schedule.golden from this build's output")

// routerStatsGolden pins every switch's counters and every link's load on a
// matrix of saturated points to a file an earlier build of the stepping code
// wrote. Dense, activity and pooled stepping share one switch, so agreeing
// with each other cannot vouch for a change to that switch; this file can.
const routerStatsGolden = "testdata/router-stats.golden"

// routerStatsCases is the matrix: every registered model at two sizes (the
// square models at 64 and 256 nodes, so the pool engages), under uniform,
// hotspot and broadcast traffic past saturation.
func routerStatsCases() []Config {
	base := Config{MsgLen: 8, Rate: 0.15, Depth: 4, Warmup: 100, Measure: 400, Drain: 800, Seed: 5}
	uniform := base
	hotspot := base
	hotspot.Pattern, hotspot.HotspotBias = traffic.Hotspot, 0.4
	bcast := base
	bcast.Rate, bcast.Beta = 0.05, 0.2
	var cases []Config
	for _, name := range model.Names() {
		m, _ := model.Lookup(name)
		ns := []int{16, 64}
		if m.CheckN != nil && m.CheckN(256) == nil {
			ns = []int{64, 256}
		}
		for _, n := range ns {
			for _, wl := range []Config{uniform, hotspot, bcast} {
				wl.Model, wl.N = name, n
				cases = append(cases, wl)
			}
		}
	}
	return cases
}

// routerStatsLine is one case's line of the golden file: the fabric's
// aggregate counters in the clear, then digests of every router's counters
// and of every output port's flit count.
func routerStatsLine(cfg Config) (string, error) {
	var line string
	ctx := withFabricObserver(context.Background(), func(fab *network.Fabric) {
		agg := fab.RouterStats()
		h := sha256.New()
		word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for _, r := range fab.Routers {
			s := r.Stats()
			word(s.Grants)
			for _, v := range s.Stalls {
				word(v)
			}
			word(s.OccupancySum)
			word(s.Cycles)
		}
		routers := h.Sum(nil)
		h.Reset()
		for _, outs := range fab.LinkLoad() {
			word(uint64(len(outs)))
			for _, v := range outs {
				word(v)
			}
		}
		line = fmt.Sprintf("%s/%d/%s grants=%d no-credit=%d vc-busy=%d arb-lost=%d occupancy=%d cycles=%d routers=%x links=%x",
			cfg.ModelName(), cfg.N, routerStatsTraffic(cfg), agg.Grants,
			agg.Stalls[router.StallNoCredit], agg.Stalls[router.StallVCBusy], agg.Stalls[router.StallArbLost],
			agg.OccupancySum, agg.Cycles, routers[:8], h.Sum(nil)[:8])
	})
	_, err := RunContext(ctx, cfg)
	return line, err
}

func routerStatsTraffic(cfg Config) string {
	switch {
	case cfg.Beta > 0:
		return "broadcast"
	case cfg.Pattern == traffic.Hotspot:
		return "hotspot"
	}
	return "uniform"
}

// TestRouterStatsMatchParent: at one and two step workers, every case's
// router statistics and link loads equal the golden file's. Refresh it
// deliberately with -update.
func TestRouterStatsMatchParent(t *testing.T) {
	cases := routerStatsCases()
	lines := make([][2]string, len(cases))
	for i, cfg := range cases {
		for w, workers := range []int{1, 2} {
			cfg.StepWorkers, cfg.stepGrain = workers, 1
			line, err := routerStatsLine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lines[i][w] = line
		}
	}
	got := make([]string, len(cases))
	for i, l := range lines {
		if l[0] != l[1] {
			t.Errorf("two step workers changed the counters:\n1: %s\n2: %s", l[0], l[1])
		}
		got[i] = l[0]
	}
	path := filepath.FromSlash(routerStatsGolden)
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
			t.Errorf("counters diverged from the golden file:\ngot  %s\nwant %s", got[i], want[i])
		}
	}
}
