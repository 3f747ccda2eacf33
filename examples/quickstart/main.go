// Quickstart: build a small Quarc NoC, send a unicast and a broadcast, and
// watch the message lifecycles complete.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"quarc"
)

func main() {
	// An 8-node Quarc with 4-flit virtual-channel buffers.
	fab, nodes, err := quarc.Build("quarc", 8, 4)
	if err != nil {
		log.Fatal(err)
	}

	// Print every completed message.
	fab.Tracker.OnDone = func(r quarc.MessageRecord) {
		fmt.Printf("message %d (%v) from node %d: generated at cycle %d, "+
			"%d destination(s), completed at cycle %d (latency %d cycles)\n",
			r.MsgID, r.Class, r.Src, r.Gen, r.Expected, r.Last, r.Last-r.Gen)
	}

	// Node 0 sends an 8-flit unicast to node 5. The transceiver's quadrant
	// calculator routes it: offset 5 of 8 is in the cross-ccw quadrant, so
	// the packet takes the cross link to node 4 and one rim hop backwards.
	nodes[0].SendUnicast(5, 8, fab.Now())

	// Node 3 broadcasts a cache-line update: four branch packets cover the
	// other 7 nodes along base-routing conformed paths, absorbed and
	// forwarded simultaneously at every hop.
	nodes[3].SendBroadcast(8, fab.Now())

	// Step the fabric until both messages land.
	for fab.Tracker.InFlight() > 0 {
		fab.Step()
	}

	fmt.Printf("\nsimulated %d cycles, %d flits crossed links, %d flits delivered\n",
		fab.Now(), fab.FlitsForwarded(), fab.FlitsDelivered())
	fmt.Printf("duplicate deliveries: %d (the Quarc broadcast covers every node exactly once)\n",
		fab.Tracker.Duplicates())
}
