package experiments

import (
	"context"
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/router"
	"quarc/internal/traffic"
)

// The activity-driven scheduler's contract: skipping quiescent routers and
// idle cycles must be invisible — every registered model, under every
// workload shape, at both ends of the load axis, must produce the same
// Result, the same tracker counters and the same per-router statistics as
// a network that steps all N routers every cycle. The reference is the spec
// fabric (spec_test.go), which shares no switch code with the simulator. New
// models inherit the proof with no edits here.

// fabricProbe is everything observable about a finished run.
type fabricProbe struct {
	cycle      int64
	delivered  uint64
	forwarded  uint64
	completed  uint64
	duplicates uint64
	inflight   int
	stepped    uint64
	routers    []router.Stats
	links      [][]uint64
	deliveries []delivery
}

func probeRun(t testing.TB, cfg Config) (Result, fabricProbe) {
	t.Helper()
	var p fabricProbe
	ctx := withClock(context.Background(), func(fab *network.Fabric) clock {
		logDeliveries(fab, &p.deliveries)
		return fab
	})
	ctx = withFabricObserver(ctx, func(fab *network.Fabric) {
		fab.SyncStats()
		p.cycle = fab.Now()
		p.delivered = fab.FlitsDelivered()
		p.forwarded = fab.FlitsForwarded()
		p.completed = fab.Tracker.Completed()
		p.duplicates = fab.Tracker.Duplicates()
		p.inflight = fab.Tracker.InFlight()
		p.stepped = fab.SteppedRouters()
		for _, r := range fab.Routers {
			p.routers = append(p.routers, r.Stats())
		}
		p.links = fab.LinkLoad()
	})
	res, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

// activityWorkloads are the workload shapes of the equivalence matrix.
func activityWorkloads(rate float64) map[string]Config {
	base := Config{N: 0, MsgLen: 8, Rate: rate, Depth: 4,
		Warmup: 150, Measure: 600, Drain: 3000, Seed: 99}
	unicast := base
	bcast := base
	bcast.Beta = 0.3
	hotspot := base
	hotspot.Pattern = traffic.Hotspot
	hotspot.HotspotBias = 0.4
	bursty := base
	bursty.BurstMeanOn, bursty.BurstMeanOff = 30, 90
	mcast := base
	mcast.McastFrac, mcast.McastSize = 0.3, 3
	return map[string]Config{
		"unicast":   unicast,
		"broadcast": bcast,
		"hotspot":   hotspot,
		"bursty":    bursty,
		"multicast": mcast,
	}
}

func TestActivityDrivenBitIdenticalToDense(t *testing.T) {
	rates := map[string]float64{
		"lowload":   0.002,
		"saturated": 0.15,
	}
	for _, name := range model.Names() {
		name := name
		m, _ := model.Lookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for rateName, rate := range rates {
				for wlName, cfg := range activityWorkloads(rate) {
					cfg.Model = name
					cfg.N = m.ExampleN
					aRes, ap := probeRun(t, cfg)
					sRes, sp := probeSpec(t, cfg)
					expectMatchesSpec(t, rateName+"/"+wlName, aRes, ap, sRes, sp)
					// Guard against a vacuous pass: at low load the scheduler
					// must actually have skipped work.
					if rateName == "lowload" && ap.stepped*2 > sp.stepped {
						t.Errorf("%s/%s: activity stepping did not engage: %d of %d router-steps",
							rateName, wlName, ap.stepped, sp.stepped)
					}
					if t.Failed() {
						return
					}
				}
			}
		})
	}
}

// TestActivitySchedulerSkipsIdleCycles pins the layer-2 mechanism directly:
// at a rate where arrivals are dozens of cycles apart on a small network,
// the activity run must execute a small fraction of the N router-steps a
// cycle that stepping every router would — bounded here, so a regression
// that silently steps every router fails loudly rather than just slowing
// down.
func TestActivitySchedulerSkipsIdleCycles(t *testing.T) {
	cfg := Config{Model: "quarc", N: 16, MsgLen: 4, Rate: 0.0005,
		Depth: 4, Warmup: 500, Measure: 4000, Drain: 8000, Seed: 3}
	_, ap := probeRun(t, cfg)
	every := uint64(cfg.N) * uint64(ap.cycle)
	if ap.stepped*4 > every {
		t.Fatalf("activity executed %d router-steps of %d; want < 25%%", ap.stepped, every)
	}
}

// busyClock is a fabric whose clock loop never takes the idle skip: every
// cycle of the window goes through StepBatch.
type busyClock struct{ *network.Fabric }

func (busyClock) Idle() bool { return false }

// TestClockLoopAllocatesNothingPerCycle: the clock loop — the calendar fired
// from StepBatch's hook before every cycle, the idle skip between events —
// costs no allocation per cycle, serial or pooled. With no traffic, nothing
// else in a point scales with its length, so a window twenty times longer
// must allocate what the short one does: one allocation per cycle would add
// 19,000. The stepped cases never take the idle skip, so StepBatch runs every
// cycle of the window (the pooled fabric dispatches its pool while its nodes
// are awake, at cycle 0). A couple of strays are tolerated for the race
// detector's own.
func TestClockLoopAllocatesNothingPerCycle(t *testing.T) {
	busy := withClock(context.Background(), func(fab *network.Fabric) clock { return busyClock{fab} })
	for _, c := range []struct {
		name       string
		model      string
		n, workers int
		ctx        context.Context
	}{
		{"serial-stepped", "quarc", 16, 1, busy},
		{"pooled-stepped", "mesh", 144, 2, busy},
		{"serial-idle-skip", "quarc", 16, 1, context.Background()},
	} {
		allocs := func(measure int64) float64 {
			cfg := Config{Model: c.model, N: c.n, MsgLen: 8, Rate: 0, Warmup: 500, Measure: measure,
				Drain: 3000, Seed: 3, StepWorkers: c.workers, stepGrain: 1}
			return testing.AllocsPerRun(3, func() {
				if _, err := RunContext(c.ctx, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(1_000), allocs(20_000)
		if long > short+2 {
			t.Errorf("%s: %.0f allocations over 20,500 cycles, %.0f over 1,500", c.name, long, short)
		}
	}
}
