// Command quarctrace runs a small scripted scenario on any registered model
// with flit-level tracing enabled and prints the event log — the quickest
// way to watch a packet worm its way through the switches, see a broadcast
// fan out over its four BRCP branches, or compare against the Spidergon's
// store-and-forward chains. On a one-port model the multicast is its
// unicast fan-out.
//
// Examples:
//
//	quarctrace -topo quarc -n 16 -scenario broadcast
//	quarctrace -topo spidergon -n 16 -scenario broadcast
//	quarctrace -topo quarc -n 16 -scenario unicast -src 0 -dst 11
//	quarctrace -topo mesh -n 16 -scenario multicast
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"quarc/internal/model"
	_ "quarc/internal/models"
	"quarc/internal/trace"
)

// mcastTargets is the multicast scenario's fixed target set.
var mcastTargets = []int{2, 5, 11, 14}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is quarctrace with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quarctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo     = fs.String("topo", "quarc", "network model by registry name")
		n        = fs.Int("n", 16, "nodes")
		scenario = fs.String("scenario", "broadcast", "unicast, broadcast or multicast")
		src      = fs.Int("src", 0, "source node")
		dst      = fs.Int("dst", 5, "destination (unicast)")
		m        = fs.Int("m", 4, "message length in flits")
		max      = fs.Int("max", 200, "max trace lines to print")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "quarctrace: "+format+"\n", a...)
		return code
	}

	if *src < 0 || *src >= *n {
		return fail(2, "-src %d outside [0,%d)", *src, *n)
	}
	var send func(nd model.Node, now int64)
	switch *scenario {
	case "unicast":
		if *dst < 0 || *dst >= *n || *dst == *src {
			return fail(2, "-dst %d must be a node in [0,%d) other than -src", *dst, *n)
		}
		send = func(nd model.Node, now int64) { nd.SendUnicast(*dst, *m, now) }
	case "broadcast":
		send = func(nd model.Node, now int64) { nd.SendBroadcast(*m, now) }
	case "multicast":
		for _, t := range mcastTargets {
			if t >= *n || t == *src {
				return fail(2, "multicast target %d is not a node in [0,%d) other than -src", t, *n)
			}
		}
		send = func(nd model.Node, now int64) { nd.SendMulticast(mcastTargets, *m, now) }
	default:
		return fail(1, "unknown scenario %q", *scenario)
	}

	fab, nodes, err := model.Build(*topo, model.BuildConfig{N: *n, Depth: 4})
	if err != nil {
		return fail(1, "%v", err)
	}
	fab.Trace = trace.NewBuffer(65536)
	send(nodes[*src], fab.Now())
	for i := 0; i < 1_000_000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	events := fab.Trace.Events()
	fmt.Fprintf(stdout, "%s %s on %d nodes, M=%d: %d trace events, completed at cycle %d\n\n",
		*topo, *scenario, *n, *m, len(events), fab.Now())
	for i, e := range events {
		if i >= *max {
			fmt.Fprintf(stdout, "... %d more events (raise -max)\n", len(events)-i)
			break
		}
		fmt.Fprintln(stdout, e)
	}
	fmt.Fprintf(stdout, "\nflits forwarded: %d, delivered: %d, duplicates: %d\n",
		fab.FlitsForwarded(), fab.FlitsDelivered(), fab.Tracker.Duplicates())
	return 0
}
