package experiments

import (
	"context"
	"fmt"
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/traffic"
)

// The parallel stepper's contract mirrors the activity scheduler's: sharding
// a cycle's phases across any number of workers must be invisible. Every
// registered model, under every workload shape, at both ends of the load
// axis, must produce the same Result, tracker counters and per-router
// statistics at any worker count as the serial path. The suite runs under
// -race in CI, so it doubles as the data-race proof for the phase protocol.
//
// Shards are whole 64-node words, so the pool only exists from 128 nodes up:
// the square models run at 144 nodes (two full words and a 16-node tail),
// while the ring family — capped at 64 nodes by the paper's header format —
// can only show that an explicit worker count is clamped to the serial path
// and harmless. TestCrossShardLinksBitIdentical is the wider pooled matrix.

// parallelWorkloads is the workload axis of the invariance matrix.
func parallelWorkloads(rate float64) map[string]Config {
	base := Config{MsgLen: 8, Rate: rate, Depth: 4,
		Warmup: 150, Measure: 600, Drain: 3000, Seed: 99}
	unicast := base
	bcast := base
	bcast.Beta = 0.3
	hotspot := base
	hotspot.Pattern = traffic.Hotspot
	hotspot.HotspotBias = 0.4
	mcast := base
	mcast.McastFrac, mcast.McastSize = 0.3, 3
	return map[string]Config{
		"unicast":   unicast,
		"broadcast": bcast,
		"multicast": mcast,
		"hotspot":   hotspot,
	}
}

// stepWorkerCounts is the worker axis for an n-node fabric. At 144 nodes
// every count from 2 up is the same two-worker pool (one worker per full
// word), so one count covers it; below 128 nodes every count is clamped to
// serial stepping, and two of them show the clamp holds.
func stepWorkerCounts(n int) []int {
	if n >= 128 {
		return []int{2}
	}
	return []int{2, 7}
}

// pooledN is the smallest size at which m can be stepped by a pool with a
// partial trailing word, or its example size when it cannot reach 128 nodes.
func pooledN(m model.Model) int {
	if m.CheckN == nil || m.CheckN(144) == nil {
		return 144
	}
	return m.ExampleN
}

// expectSameRun fails the test unless a pooled run matches its serial
// reference in everything observable: every delivery, the full Result, the
// fabric and tracker counters, and every router's statistics.
func expectSameRun(t *testing.T, what string, pRes Result, pp fabricProbe, sRes Result, sp fabricProbe) {
	t.Helper()
	if d := firstDifference("parallel", pp.deliveries, "serial", sp.deliveries); d != "" {
		t.Errorf("%s: %s", what, d)
	}
	if pRes != sRes {
		t.Errorf("%s changed the Result:\nparallel %+v\nserial   %+v", what, pRes, sRes)
	}
	if pp.cycle != sp.cycle || pp.delivered != sp.delivered ||
		pp.forwarded != sp.forwarded || pp.stepped != sp.stepped {
		t.Errorf("%s changed fabric counters: parallel {cyc %d del %d fwd %d step %d} serial {cyc %d del %d fwd %d step %d}",
			what, pp.cycle, pp.delivered, pp.forwarded, pp.stepped,
			sp.cycle, sp.delivered, sp.forwarded, sp.stepped)
	}
	if pp.completed != sp.completed || pp.duplicates != sp.duplicates || pp.inflight != sp.inflight {
		t.Errorf("%s changed tracker counters: parallel {done %d dup %d inflight %d} serial {done %d dup %d inflight %d}",
			what, pp.completed, pp.duplicates, pp.inflight, sp.completed, sp.duplicates, sp.inflight)
	}
	for node := range sp.routers {
		if pp.routers[node] != sp.routers[node] {
			t.Errorf("%s changed router %d stats:\nparallel %+v\nserial   %+v",
				what, node, pp.routers[node], sp.routers[node])
		}
	}
}

func TestStepWorkerInvariance(t *testing.T) {
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
				for wlName, cfg := range parallelWorkloads(rate) {
					cfg.Model = name
					cfg.N = pooledN(m)
					// The pool only engages once the active set reaches the
					// dispatch grain; drop the grain to exercise the pool on
					// every stepped cycle, however few nodes are awake.
					cfg.stepGrain = 1

					serial := cfg
					serial.StepWorkers = 1
					sRes, sProbe := probeRun(t, serial)

					for _, w := range stepWorkerCounts(cfg.N) {
						par := cfg
						par.StepWorkers = w
						pRes, pProbe := probeRun(t, par)

						expectSameRun(t, fmt.Sprintf("%s/%s: %d workers", rateName, wlName, w),
							pRes, pProbe, sRes, sProbe)
						if t.Failed() {
							return
						}
					}
				}
			}
		})
	}
}

// TestCrossShardLinksBitIdentical aims the same contract at the mailboxes:
// 256-node fabrics split into 2, 3 and 4 shards (so the same link is once
// inside a shard and once across a boundary), the torus adding wrap-around
// links that join the first shard to the last in both directions. Unicast,
// software-broadcast and multicast traffic, at low load (few nodes awake, the
// pool forced by stepGrain 1) and saturated (every boundary link busy every
// cycle, sleepers holding flits woken by credits from another shard), must match
// the serial run bit for bit. Only the square models can: the ring family
// stops at 64 nodes, one mask word. TestFabricMatchesSpec holds pooled
// fabrics to the spec fabric.
func TestCrossShardLinksBitIdentical(t *testing.T) {
	base := Config{N: 256, MsgLen: 6, Depth: 4, Warmup: 40, Measure: 160, Drain: 500, Seed: 31}
	bcast, mcast := base, base
	bcast.Beta = 0.02
	mcast.McastFrac, mcast.McastSize = 0.3, 4
	workloads := map[string]Config{"unicast": base, "broadcast": bcast, "multicast": mcast}
	for _, name := range []string{"mesh", "torus"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for wlName, cfg := range workloads {
				for rateName, rate := range map[string]float64{"lowload": 0.001, "saturated": 0.12} {
					cfg.Model, cfg.Rate, cfg.stepGrain = name, rate, 1
					serial := cfg
					serial.StepWorkers = 1
					sRes, sProbe := probeRun(t, serial)
					if sProbe.forwarded == 0 {
						t.Fatalf("%s/%s: reference run moved no flit", wlName, rateName)
					}
					for _, w := range []int{2, 3, 4} {
						par := cfg
						par.StepWorkers = w
						pRes, pProbe := probeRun(t, par)
						expectSameRun(t, fmt.Sprintf("%s/%s: %d workers", wlName, rateName, w),
							pRes, pProbe, sRes, sProbe)
						if t.Failed() {
							return
						}
					}
				}
			}
		})
	}
}

// TestBlockedSleepEngagesWhenSaturated guards the dependency wake graph
// against a silent fallback: at a saturated load, routers that are wedged
// behind exhausted credits must actually go to sleep holding flits (the
// bit-identity of the slept cycles is proven by the spec-equivalence and
// worker-invariance suites; TestSleepScheduleMatchesParent pins how often).
func TestBlockedSleepEngagesWhenSaturated(t *testing.T) {
	cfg := Config{Model: "quarc", N: 16, MsgLen: 8, Rate: 0.15, Depth: 4,
		Pattern: traffic.Hotspot, HotspotBias: 0.4,
		Warmup: 150, Measure: 600, Drain: 3000, Seed: 99}
	var blocked uint64
	ctx := withFabricObserver(context.Background(), func(fab *network.Fabric) {
		blocked = fab.BlockedSleeps()
	})
	if _, err := RunContext(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if blocked == 0 {
		t.Fatal("saturated hotspot run never slept a router holding flits")
	}
}

// TestDrainConservation pins the drain loop's early exits (the stop hook
// firing on an empty tracker, the idle-fabric break) against flit loss: the
// serial activity path and the parallel path must drain the network
// completely and deliver exactly the flits the spec fabric does, whose drain
// steps every cycle and never takes an idle exit.
func TestDrainConservation(t *testing.T) {
	// A load high enough to queue real backlog but below saturation, so the
	// drain budget suffices and "fully drained" is the correct expectation;
	// a fabric big enough for the four workers to be real.
	base := Config{Model: "torus", N: 256, MsgLen: 8, Rate: 0.02, Beta: 0.01,
		Depth: 4, Warmup: 150, Measure: 600, Drain: 5000, Seed: 7}

	serial := base
	serial.StepWorkers = 1
	par := base
	par.StepWorkers = 4
	par.stepGrain = 1

	specRes, specP := probeSpec(t, base)
	sRes, sP := probeRun(t, serial)
	pRes, pP := probeRun(t, par)

	for mode, p := range map[string]fabricProbe{"spec": specP, "serial": sP, "parallel": pP} {
		if p.inflight != 0 {
			t.Errorf("%s: %d messages still in flight after drain", mode, p.inflight)
		}
	}
	if sP.delivered != specP.delivered || pP.delivered != specP.delivered {
		t.Errorf("drained flit counts diverged: spec %d serial %d parallel %d",
			specP.delivered, sP.delivered, pP.delivered)
	}
	if sRes != specRes {
		t.Errorf("serial drain result diverged from the spec's:\nserial %+v\nspec   %+v", sRes, specRes)
	}
	if pRes != sRes {
		t.Errorf("parallel drain result diverged from serial:\nparallel %+v\nserial   %+v", pRes, sRes)
	}
}

// TestBusyStretchIsOneDispatch pins the clock loop's point: the calendar
// fires inside StepBatch's hook, so a saturated stretch with live traffic
// sources is one pool dispatch, not one per cycle (one helper wake-up each).
// A saturated 32x32 mesh at two step workers, over 400 live cycles and a
// one-cycle drain, may dispatch a handful of times — at cycle 0, when every
// node starts awake, and again once the load has built up past the pool
// grain — but not once per cycle, as it did while the fabric was a
// per-cycle calendar event.
func TestBusyStretchIsOneDispatch(t *testing.T) {
	cfg := Config{Model: "mesh", N: 1024, MsgLen: 16, Rate: 0.05, Depth: 4,
		Warmup: 100, Measure: 300, Drain: 1, Seed: 13, StepWorkers: 2}
	before := network.PoolDispatches()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("the point did not saturate: the pool may not have been busy")
	}
	n := network.PoolDispatches() - before
	if n == 0 || n > 8 {
		t.Fatalf("%d pool dispatches over %d live cycles, want 1 to 8", n, cfg.Warmup+cfg.Measure)
	}
	t.Logf("%d pool dispatches over %d live cycles", n, cfg.Warmup+cfg.Measure)
}
