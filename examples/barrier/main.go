// Barrier synchronisation: a second collective-communication workload.
//
// The paper positions the Quarc as "highly efficient in exchanging all types
// of traffic including broadcast and multicast" (§1) — collectives beyond
// cache invalidations. This example implements a classic two-phase barrier
// over the NoC:
//
//  1. gather: every core unicasts an "arrived" token to a root;
//  2. release: the root broadcasts the release when all tokens are in.
//
// The barrier cost is gather (unicast fan-in, bounded by the root's ejection
// bandwidth) plus release (one broadcast). On the Quarc the release is a
// single pipelined BRCP broadcast (~N/4 + M cycles); on the Spidergon it is
// a store-and-forward chain (~(N/2)(M+2) cycles), so barrier rounds are
// several times slower — which is exactly what the paper predicts for
// synchronisation-heavy MPSoC software.
//
// Run with:
//
//	go run ./examples/barrier
package main

import (
	"fmt"
	"log"

	"quarc"
	"quarc/internal/plot"
)

const (
	nodes    = 16
	tokenLen = 2 // flits per "arrived" token
	relLen   = 2 // flits per release broadcast
	rounds   = 32
)

// barrierRound runs `rounds` consecutive barriers and returns the mean
// cycles per round.
func barrierRound(topoName string) (float64, error) {
	fab, cores, err := quarc.Build(topoName, nodes, 4)
	if err != nil {
		return 0, err
	}
	const root = 0

	// Track message completions by id.
	done := map[uint64]bool{}
	fab.Tracker.OnDone = func(r quarc.MessageRecord) { done[r.MsgID] = true }

	start := fab.Now()
	for round := 0; round < rounds; round++ {
		// Phase 1: gather. All non-root cores send their token at once —
		// the fan-in stresses the root's ejection path.
		tokens := make([]uint64, 0, nodes-1)
		for c := 0; c < nodes; c++ {
			if c != root {
				tokens = append(tokens, cores[c].SendUnicast(root, tokenLen, fab.Now()))
			}
		}
		for !allDone(done, tokens) {
			fab.Step()
		}
		// Phase 2: release broadcast; the barrier opens when the LAST core
		// hears it (completion latency).
		rel := cores[root].SendBroadcast(relLen, fab.Now())
		for !done[rel] {
			fab.Step()
		}
	}
	total := fab.Now() - start
	return float64(total) / rounds, nil
}

func allDone(done map[uint64]bool, ids []uint64) bool {
	for _, id := range ids {
		if !done[id] {
			return false
		}
	}
	return true
}

func main() {
	fmt.Printf("two-phase barrier on %d cores (%d-flit tokens, %d rounds)\n\n",
		nodes, tokenLen, rounds)
	var rows [][]string
	costs := map[string]float64{}
	for _, topo := range []string{"quarc", "spidergon"} {
		mean, err := barrierRound(topo)
		if err != nil {
			log.Fatal(err)
		}
		costs[topo] = mean
		rows = append(rows, []string{topo, fmt.Sprintf("%.1f", mean)})
	}
	fmt.Println(plot.Table([]string{"topology", "cycles per barrier"}, rows))
	fmt.Printf("\nthe Quarc synchronises %.1fx faster per barrier round: the gather is\n"+
		"similar on both (unicast fan-in), but the release broadcast is a single\n"+
		"pipelined BRCP wave instead of a store-and-forward chain.\n",
		costs["spidergon"]/costs["quarc"])
}
