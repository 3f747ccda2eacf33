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
// the dense reference that steps all N routers every cycle. New models
// inherit the proof with no edits here.

// fabricProbe is everything observable about a finished fabric.
type fabricProbe struct {
	cycle      int64
	delivered  uint64
	forwarded  uint64
	completed  uint64
	duplicates uint64
	inflight   int
	stepped    uint64
	routers    []router.Stats
}

func probeRun(t *testing.T, cfg Config) (Result, fabricProbe) {
	t.Helper()
	var p fabricProbe
	ctx := withFabricObserver(context.Background(), func(fab *network.Fabric) {
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
					dense := cfg
					dense.denseStep = true

					aRes, aProbe := probeRun(t, cfg)
					dRes, dProbe := probeRun(t, dense)

					// The stepping mode is the only intended difference;
					// erase it before comparing the full Result.
					dRes.Cfg.denseStep = false
					if aRes != dRes {
						t.Errorf("%s/%s: Result diverged:\nactivity %+v\ndense    %+v",
							rateName, wlName, aRes, dRes)
					}

					ap, dp := aProbe, dProbe
					if ap.cycle != dp.cycle || ap.delivered != dp.delivered ||
						ap.forwarded != dp.forwarded {
						t.Errorf("%s/%s: fabric counters diverged: activity {cyc %d del %d fwd %d} dense {cyc %d del %d fwd %d}",
							rateName, wlName, ap.cycle, ap.delivered, ap.forwarded,
							dp.cycle, dp.delivered, dp.forwarded)
					}
					if ap.completed != dp.completed || ap.duplicates != dp.duplicates ||
						ap.inflight != dp.inflight {
						t.Errorf("%s/%s: tracker counters diverged: activity {done %d dup %d inflight %d} dense {done %d dup %d inflight %d}",
							rateName, wlName, ap.completed, ap.duplicates, ap.inflight,
							dp.completed, dp.duplicates, dp.inflight)
					}
					if len(ap.routers) != len(dp.routers) {
						t.Fatalf("%s/%s: router count mismatch", rateName, wlName)
					}
					for node := range ap.routers {
						if ap.routers[node] != dp.routers[node] {
							t.Errorf("%s/%s: router %d stats diverged:\nactivity %+v\ndense    %+v",
								rateName, wlName, node, ap.routers[node], dp.routers[node])
						}
					}

					// Guard against a vacuous pass: at low load the scheduler
					// must actually have skipped work, and in dense mode the
					// step count must be exactly N per cycle.
					if dp.stepped != uint64(cfg.N)*uint64(dp.cycle) {
						t.Errorf("%s/%s: dense stepped %d router-steps over %d cycles, want %d",
							rateName, wlName, dp.stepped, dp.cycle, uint64(cfg.N)*uint64(dp.cycle))
					}
					if rateName == "lowload" && ap.stepped*2 > dp.stepped {
						t.Errorf("%s/%s: activity stepping did not engage: %d of %d router-steps",
							rateName, wlName, ap.stepped, dp.stepped)
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
// the activity run must execute a small fraction of the dense run's
// router-steps — bounded here, so a regression that silently falls back to
// dense stepping fails loudly rather than just slowing down.
func TestActivitySchedulerSkipsIdleCycles(t *testing.T) {
	cfg := Config{Model: "quarc", N: 16, MsgLen: 4, Rate: 0.0005,
		Depth: 4, Warmup: 500, Measure: 4000, Drain: 8000, Seed: 3}
	_, ap := probeRun(t, cfg)
	dense := cfg
	dense.denseStep = true
	_, dp := probeRun(t, dense)
	if ap.stepped*4 > dp.stepped {
		t.Fatalf("activity executed %d router-steps vs dense %d; want < 25%%",
			ap.stepped, dp.stepped)
	}
}

// TestClockLoopAllocatesNothingPerCycle: the clock loop — the calendar fired
// from StepBatch's hook before every cycle, the idle skip between events —
// costs no allocation per cycle, serial or pooled. With no traffic, nothing
// else in a point scales with its length, so a window twenty times longer
// must allocate what the short one does: one allocation per cycle would add
// 19,000. A couple of strays are tolerated for the race detector's own.
func TestClockLoopAllocatesNothingPerCycle(t *testing.T) {
	for _, c := range []struct {
		name       string
		model      string
		n, workers int
		dense      bool
	}{
		{"serial-dense", "quarc", 16, 1, true},
		{"pooled-dense", "mesh", 144, 2, true},
		{"serial-idle-skip", "quarc", 16, 1, false},
	} {
		allocs := func(measure int64) float64 {
			cfg := Config{Model: c.model, N: c.n, MsgLen: 8, Rate: 0, Warmup: 500, Measure: measure,
				Drain: 3000, Seed: 3, StepWorkers: c.workers, denseStep: c.dense}
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg); err != nil {
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
