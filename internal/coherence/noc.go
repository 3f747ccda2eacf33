package coherence

import (
	"fmt"

	"quarc/internal/model"
	"quarc/internal/network"
)

// FabricNoC adapts a simulated fabric (any registered model) to the protocol
// engine's NoC interface and wires message completions back into the
// protocol.
type FabricNoC struct {
	fab   *network.Fabric
	nodes []model.Node
}

// NewFabricNoC wraps a fabric and its per-node adapters, as model.Build
// returns them. Install the returned value into a System and call Bind
// afterwards so completions flow back into the protocol.
func NewFabricNoC(fab *network.Fabric, nodes []model.Node) (*FabricNoC, error) {
	if fab.N != len(nodes) {
		return nil, fmt.Errorf("coherence: %d nodes for a %d-node fabric", len(nodes), fab.N)
	}
	return &FabricNoC{fab: fab, nodes: nodes}, nil
}

// Bind routes fabric message completions into the protocol engine. Any
// previously installed tracker callback is replaced.
func (n *FabricNoC) Bind(sys *System) {
	n.fab.Tracker.OnDone = func(r network.MessageRecord) {
		sys.MessageDone(r.MsgID, r.Last)
	}
}

// Unicast implements NoC.
func (n *FabricNoC) Unicast(src, dst, msgLen int, now int64) uint64 {
	return n.nodes[src].SendUnicast(dst, msgLen, now)
}

// Broadcast implements NoC.
func (n *FabricNoC) Broadcast(src, msgLen int, now int64) uint64 {
	return n.nodes[src].SendBroadcast(msgLen, now)
}

// Now implements NoC.
func (n *FabricNoC) Now() int64 { return n.fab.Now() }

// Step implements NoC.
func (n *FabricNoC) Step() { n.fab.Step() }

// InFlight implements NoC.
func (n *FabricNoC) InFlight() int { return n.fab.Tracker.InFlight() }

var _ NoC = (*FabricNoC)(nil)

// RunWorkload drives cores through a random read/write mix for the given
// number of issue slots: each cycle every unblocked core issues one
// operation with probability issueProb. It steps the fabric as it goes and
// drains at the end, returning the protocol statistics.
func RunWorkload(sys *System, noc NoC, cores int, cycles int64, issueProb float64) (Stats, error) {
	for c := int64(0); c < cycles; c++ {
		for core := 0; core < cores; core++ {
			if sys.Blocked(core) {
				continue
			}
			op := sys.RandomOp()
			op.Core = core
			if !sys.r.Bernoulli(issueProb) {
				continue
			}
			if _, err := sys.Issue(op, noc.Now()); err != nil {
				return Stats{}, err
			}
		}
		noc.Step()
	}
	for i := 0; i < 200000 && noc.InFlight() > 0; i++ {
		noc.Step()
	}
	if noc.InFlight() > 0 {
		return sys.Stats(), fmt.Errorf("coherence: %d messages undelivered", noc.InFlight())
	}
	if err := sys.CheckInvariants(); err != nil {
		return sys.Stats(), err
	}
	return sys.Stats(), nil
}
