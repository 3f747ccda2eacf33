package experiments

import (
	"testing"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/sim"
	"quarc/internal/traffic"
)

// TestMessageConservationAcrossModels drives every registered model with
// live traffic and checks conservation at the tracker: every injected
// message is either delivered (completed) or still in flight, at every
// sampled cycle, and after the drain nothing is in flight, nothing is lost
// and nothing is delivered twice — with the fabric's InvariantChecker armed
// on every cycle, so each model's wiring also holds the wormhole invariants
// and credit conservation (I5: sender credit + flits buffered downstream ==
// lane depth on every link). The model list comes from the registry,
// so a newly registered model inherits the property with no edits here; the
// subtests run in parallel, so under -race this also shakes out cross-run
// sharing bugs in the models.
func TestMessageConservationAcrossModels(t *testing.T) {
	for _, name := range model.Names() {
		name := name
		m, _ := model.Lookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Model: name, N: m.ExampleN, MsgLen: 4, Beta: 0.1, Rate: 0.008,
				McastFrac: 0.15, McastSize: 3,
				Depth: 4, Warmup: 200, Measure: 1500, Drain: 20000, Seed: 11}
			fab, nodes, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var mcasts int
			fab.Tracker.OnDone = func(r network.MessageRecord) {
				if r.Class == network.ClassMulticast {
					mcasts++
				}
			}
			horizon := cfg.Warmup + cfg.Measure

			var k sim.Kernel
			senders := make([]traffic.Sender, len(nodes))
			for i, nd := range nodes {
				senders[i] = nd
			}
			sources, err := traffic.Install(&k, traffic.Config{
				N: cfg.N, Rate: cfg.Rate, Beta: cfg.Beta, MsgLen: cfg.MsgLen,
				McastFrac: cfg.McastFrac, McastSize: cfg.McastSize,
				Seed: cfg.Seed, Until: horizon,
			}, senders)
			if err != nil {
				t.Fatal(err)
			}

			check := func(now int64) {
				sent := traffic.TotalSent(sources)
				acct := int64(fab.Tracker.Completed()) + int64(fab.Tracker.InFlight())
				if acct != sent {
					t.Fatalf("cycle %d: %d messages sent but %d accounted for "+
						"(completed %d + in flight %d)", now, sent, acct,
						fab.Tracker.Completed(), fab.Tracker.InFlight())
				}
			}
			chk := network.NewInvariantChecker(fab)
			k.Ticker(0, 1, sim.PriFabric, func(now sim.Time) bool {
				if err := chk.StepChecked(); err != nil {
					t.Fatalf("cycle %d: %v", now, err)
				}
				if now%50 == 0 {
					check(now)
				}
				return true
			})
			k.Run(horizon)

			for i := int64(0); i < cfg.Drain && fab.Tracker.InFlight() > 0; i++ {
				if err := chk.StepChecked(); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
			check(horizon + cfg.Drain)
			if left := fab.Tracker.InFlight(); left != 0 {
				t.Errorf("%d messages still in flight after the drain budget", left)
			}
			if dup := fab.Tracker.Duplicates(); dup != 0 {
				t.Errorf("%d duplicate deliveries", dup)
			}
			if sent := traffic.TotalSent(sources); sent == 0 {
				t.Error("workload generated no messages; the property is vacuous")
			}
			if mcasts == 0 {
				t.Error("workload completed no multicasts; the multicast leg is vacuous")
			}
		})
	}
}

// TestPacketTableDrains holds the fabric's packet table to its lifecycle on
// every registered model (the Quarc's BRCP collectives and its chain-broadcast
// and single-queue ablations included) under uniform, hotspot, bursty,
// broadcast and multicast traffic, and on a pooled 16x16 mesh: at sampled
// cycles the table's live packets are exactly the packets with a flit in a
// source queue or a lane (the InvariantChecker's I6 walk, beside I1-I5), and
// after a full drain the table holds no live handle — every packet left it
// when its tail left the network, a Quarc clone's only at its branch's last
// node.
func TestPacketTableDrains(t *testing.T) {
	workloads := []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{Rate: 0.02}},
		{"hotspot", Config{Rate: 0.01, Pattern: traffic.Hotspot, HotspotBias: 0.5}},
		{"bursty", Config{Rate: 0.01, BurstMeanOn: 40, BurstMeanOff: 120}},
		{"broadcast", Config{Rate: 0.006, Beta: 0.3}},
		{"multicast", Config{Rate: 0.008, McastFrac: 0.3, McastSize: 4}},
	}
	type run struct {
		name    string
		cfg     Config
		workers int
	}
	var runs []run
	for _, name := range model.Names() {
		m, _ := model.Lookup(name)
		for _, w := range workloads {
			c := w.cfg
			c.Model, c.N = name, m.ExampleN
			runs = append(runs, run{name + "/" + w.name, c, 1})
		}
	}
	runs = append(runs, run{"mesh-256-pooled/uniform", Config{Model: "mesh", N: 256, Rate: 0.02}, 2})
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cfg := r.cfg
			cfg.MsgLen, cfg.Depth, cfg.Warmup, cfg.Measure, cfg.Drain, cfg.Seed = 6, 4, 0, 800, 20000, 5
			cfg = cfg.WithDefaults()
			fab, nodes, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fab.SetStepWorkers(r.workers)
			defer fab.Close()
			fab.SetStepGrain(1)
			var k sim.Kernel
			senders := make([]traffic.Sender, len(nodes))
			for i, nd := range nodes {
				senders[i] = nd
			}
			if bern, burst, bursty := cfg.sources(); bursty {
				_, err = traffic.InstallBursty(&k, burst, senders)
			} else {
				_, err = traffic.Install(&k, bern, senders)
			}
			if err != nil {
				t.Fatal(err)
			}
			chk := network.NewInvariantChecker(fab)
			peak := 0
			k.Ticker(0, 1, sim.PriFabric, func(now sim.Time) bool {
				fab.Step()
				peak = max(peak, fab.Packets.Live())
				if now%37 == 0 {
					if err := chk.Check(); err != nil {
						t.Fatalf("cycle %d: %v", now, err)
					}
				}
				return true
			})
			k.Run(cfg.Measure)
			for i := int64(0); i < cfg.Drain && !fab.Idle(); i++ {
				fab.Step()
			}
			if err := chk.Check(); err != nil {
				t.Fatalf("after the drain: %v", err)
			}
			if left := fab.Tracker.InFlight(); left != 0 {
				t.Fatalf("%d messages still in flight after the drain budget", left)
			}
			if live := fab.Packets.Live(); live != 0 {
				t.Fatalf("%d packets live in the table after a full drain", live)
			}
			if peak == 0 {
				t.Fatal("no packet ever entered the table; the property is vacuous")
			}
		})
	}
}
