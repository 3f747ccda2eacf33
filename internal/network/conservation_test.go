package network_test

import (
	"testing"

	"quarc/internal/model"
	_ "quarc/internal/models"
	"quarc/internal/network"
	"quarc/internal/sim"
	"quarc/internal/traffic"
)

// buildModel builds a registered model and hands back its nodes as senders.
func buildModel(t *testing.T, name string, n, depth int) (*network.Fabric, []traffic.Sender) {
	t.Helper()
	fab, nodes, err := model.Build(name, model.BuildConfig{N: n, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	senders := make([]traffic.Sender, len(nodes))
	for i, nd := range nodes {
		senders[i] = nd
	}
	return fab, senders
}

func totalSent(sources []*traffic.Source) int64 {
	var total int64
	for _, s := range sources {
		total += s.Sent()
	}
	return total
}

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
			const horizon, drain = 200 + 1500, 20000
			fab, senders := buildModel(t, name, m.ExampleN, 4)
			var mcasts int
			fab.Tracker.OnDone = func(r network.MessageRecord) {
				if r.Class == network.ClassMulticast {
					mcasts++
				}
			}

			var k sim.Kernel
			sources, err := traffic.Install(&k, traffic.Config{
				N: m.ExampleN, Rate: 0.008, Beta: 0.1, MsgLen: 4,
				McastFrac: 0.15, McastSize: 3,
				Seed: 11, Until: horizon,
			}, senders)
			if err != nil {
				t.Fatal(err)
			}

			check := func(now int64) {
				sent := totalSent(sources)
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

			for i := int64(0); i < drain && fab.Tracker.InFlight() > 0; i++ {
				if err := chk.StepChecked(); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
			check(horizon + drain)
			if left := fab.Tracker.InFlight(); left != 0 {
				t.Errorf("%d messages still in flight after the drain budget", left)
			}
			if dup := fab.Tracker.Duplicates(); dup != 0 {
				t.Errorf("%d duplicate deliveries", dup)
			}
			if sent := totalSent(sources); sent == 0 {
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
		cfg  traffic.Config
	}{
		{"uniform", traffic.Config{Rate: 0.02}},
		{"hotspot", traffic.Config{Rate: 0.01, Pattern: traffic.Hotspot, HotspotBias: 0.5}},
		{"bursty", traffic.Config{Rate: 0.01, MeanOn: 40, MeanOff: 120}},
		{"broadcast", traffic.Config{Rate: 0.006, Beta: 0.3}},
		{"multicast", traffic.Config{Rate: 0.008, McastFrac: 0.3, McastSize: 4}},
	}
	type run struct {
		name, model string
		cfg         traffic.Config
		workers     int
	}
	var runs []run
	for _, name := range model.Names() {
		m, _ := model.Lookup(name)
		for _, w := range workloads {
			c := w.cfg
			c.N = m.ExampleN
			runs = append(runs, run{name + "/" + w.name, name, c, 1})
		}
	}
	runs = append(runs, run{"mesh-256-pooled/uniform", "mesh", traffic.Config{N: 256, Rate: 0.02}, 2})
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			const measure, drain = 800, 20000
			cfg := r.cfg
			cfg.MsgLen, cfg.Seed, cfg.Until = 6, 5, measure
			fab, senders := buildModel(t, r.model, cfg.N, 4)
			fab.SetStepWorkers(r.workers)
			defer fab.Close()
			fab.SetStepGrain(1)
			var k sim.Kernel
			if _, err := traffic.Install(&k, cfg, senders); err != nil {
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
			k.Run(measure)
			for i := int64(0); i < drain && !fab.Idle(); i++ {
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
