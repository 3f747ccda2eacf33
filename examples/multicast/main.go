// Multicast: demonstrate the BRCP bitstring multicast of paper §2.5.3.
//
// A 16-node Quarc sends a multicast to a scattered target set. The
// transceiver splits it into per-quadrant branch packets; each branch header
// carries a bitstring whose bit i marks the node at hop distance i+1 as a
// receiver, and the header destination is trimmed to the furthest target of
// the branch. Intermediate non-target nodes forward without absorbing;
// target nodes absorb-and-forward simultaneously.
//
// Run with:
//
//	go run ./examples/multicast
package main

import (
	"fmt"
	"log"
	"sort"

	"quarc"
	"quarc/internal/topology"
)

func main() {
	const n = 16
	fab, nodes, err := quarc.Build("quarc", n, 4)
	if err != nil {
		log.Fatal(err)
	}

	src := 0
	targets := []int{2, 5, 8, 11, 14}
	fmt.Printf("node %d multicasts an 8-flit message to %v\n\n", src, targets)

	// Show the reference branch decomposition (topology.QuarcMulticastBranches),
	// the one the transceiver's send path is tested against.
	fmt.Println("branch decomposition (paper §2.5.3):")
	for _, b := range topology.QuarcMulticastBranches(n, src, targets) {
		fmt.Printf("  quadrant %-9s header dst %-2d bitstring %012b\n", b.Q, b.Last, b.Bits)
	}
	fmt.Println()

	var completion quarc.MessageRecord
	fab.Tracker.OnDone = func(r quarc.MessageRecord) { completion = r }

	nodes[src].SendMulticast(targets, 8, fab.Now())
	for fab.Tracker.InFlight() > 0 {
		fab.Step()
	}

	fmt.Printf("multicast complete at cycle %d (%d destinations, generated at cycle %d)\n",
		completion.Last, completion.Delivered, completion.Gen)
	fmt.Printf("mean delivery cycle: %.1f; completion latency: %d cycles\n\n",
		float64(completion.DeliSum)/float64(completion.Delivered),
		completion.Last-completion.Gen)

	// Expected per-target latency is hops + message length; print the table.
	fmt.Println("per-target path lengths (deterministic routing):")
	sort.Ints(targets)
	for _, d := range targets {
		fmt.Printf("  node %-2d quadrant %-9s %d hops -> expected tail at cycle %d\n",
			d, topology.QuadrantOf(n, src, d), topology.QuarcHops(n, src, d),
			topology.QuarcHops(n, src, d)+8)
	}
	fmt.Printf("\nflits delivered to PEs: %d (= 8 flits x %d targets; non-targets got nothing)\n",
		fab.FlitsDelivered(), completion.Delivered)
}
