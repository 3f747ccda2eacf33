package quarc

import (
	"sort"
	"testing"

	"quarc/internal/flit"
	"quarc/internal/network"
	"quarc/internal/rng"
	"quarc/internal/router"
	"quarc/internal/spidergon"
	"quarc/internal/topology"
)

// queued is one packet waiting in an adapter: its header, the source queue
// holding it and the injection port it will enter through.
type queued struct {
	h           router.Header
	queue, port int
}

// drainQueued empties every source queue of a without stepping the fabric and
// returns the packets they held, with their header records in the fabric's
// packet table, in packet-id order — the order they were sent.
func drainQueued(a *network.BaseAdapter) []queued {
	var out []queued
	for qi := range a.Queues {
		q := &a.Queues[qi]
		for s, port := q.NextFlit(); s != nil; s, port = q.NextFlit() {
			if s.Seq == 0 {
				out = append(out, queued{*a.Fab.Packets.Header(s), qi, port})
			}
			q.Advance()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].h.PktID < out[j].h.PktID })
	return out
}

// TestSendPathHeadersMatchTopology: for every valid ring size and every
// source, the headers the collective send paths compute arithmetically are
// the ones internal/topology's list-building helpers describe — the BRCP
// broadcast and multicast branches (quarc, quarc-1queue) and the two
// broadcast-by-unicast chains (quarc-chainbcast, spidergon) — in the same
// order, each through the port its injection rule gives.
func TestSendPathHeadersMatchTopology(t *testing.T) {
	r := rng.New(3, 0)
	for n := 8; n <= 64; n += 4 {
		_, qs, err := Build(Config{N: n, Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		_, q1s, _ := Build(Config{N: n, Depth: 4, SingleQueue: true})
		_, qcs, _ := Build(Config{N: n, Depth: 4, ChainBroadcast: true})
		_, ss, _ := spidergon.Build(spidergon.Config{N: n, Depth: 4})
		// check compares what a send queued with the headers want describes.
		check := func(what string, src int, msgID uint64, got []queued, want []router.Header, queue, port func(dst int) int) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("n=%d src=%d %s: queued %d packets, want %d", n, src, what, len(got), len(want))
			}
			for i, w := range want {
				w.Src, w.MsgID, w.PktID, w.PktLen = int32(src), msgID, got[i].h.PktID, 4
				dst := int(w.Dst)
				if got[i].h != w || got[i].queue != queue(dst) || got[i].port != port(dst) {
					t.Fatalf("n=%d src=%d %s: packet %d queued %+v in queue %d port %d\nwant %+v in queue %d port %d",
						n, src, what, i, got[i].h, got[i].queue, got[i].port, w, queue(dst), port(dst))
				}
			}
		}
		quadrant := func(src int) func(int) int {
			return func(dst int) int { return int(topology.QuadrantOf(n, src, dst)) }
		}
		quadPort := func(src int) func(int) int {
			return func(dst int) int { return injPortFor(topology.QuadrantOf(n, src, dst)) }
		}
		zero := func(int) int { return 0 }
		for src := 0; src < n; src++ {
			var bcast []router.Header
			for _, b := range topology.QuarcBroadcastBranches(n, src) {
				bcast = append(bcast, router.Header{Traffic: flit.Broadcast, Dst: int32(b.Last)})
			}
			id := qs[src].SendBroadcast(4, 0)
			check("broadcast", src, id, drainQueued(&qs[src].BaseAdapter), bcast, quadrant(src), quadPort(src))
			id = q1s[src].SendBroadcast(4, 0)
			check("single-queue broadcast", src, id, drainQueued(&q1s[src].BaseAdapter), bcast, zero, quadPort(src))

			targets := make([]int, 1+r.Intn(n)) // self and duplicates included
			for i := range targets {
				targets[i] = r.Intn(n)
			}
			targets[0] = topology.Mod(src+1+r.Intn(n-1), n)
			var mcast []router.Header
			for _, b := range topology.QuarcMulticastBranches(n, src, targets) {
				mcast = append(mcast, router.Header{Traffic: flit.Multicast, Dst: int32(b.Last), Bits: b.Bits})
			}
			id = qs[src].SendMulticast(targets, 4, 0)
			check("multicast", src, id, drainQueued(&qs[src].BaseAdapter), mcast, quadrant(src), quadPort(src))

			var chains []router.Header
			for _, c := range topology.SpidergonBroadcastChains(n, src) {
				chains = append(chains, router.Header{Traffic: flit.BcastChain, Dst: int32(c.Nodes[0]),
					Remain: int32(len(c.Nodes) - 1), ChainCCW: c.Dir == topology.CCW})
			}
			id = qcs[src].SendBroadcast(4, 0)
			check("chain broadcast", src, id, drainQueued(&qcs[src].BaseAdapter), chains, quadrant(src), quadPort(src))
			id = ss[src].SendBroadcast(4, 0)
			check("spidergon broadcast", src, id, drainQueued(&ss[src].BaseAdapter), chains, zero,
				func(int) int { return spidergon.Inj })
		}
	}
}
