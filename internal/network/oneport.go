package network

import (
	"quarc/internal/flit"
	"quarc/internal/router"
)

// OnePortAdapter is the one-port network interface of the paper's §2.2
// baseline: a single source queue feeding a single injection channel, with
// no hardware collective support — a broadcast is n-1 independent unicasts
// and a multicast one unicast per distinct remote target. It is the same
// component on every network except the Quarc, so the mesh, torus and ring
// use it as is and the Spidergon embeds it, overriding only its broadcast.
type OnePortAdapter struct {
	BaseAdapter
	N       int // network size in nodes
	Fab     *Fabric
	InjPort int // the router input port every packet injects through
}

// NewOnePortAdapter builds node's adapter for an n-node fabric, injecting
// through router input port injPort; the caller installs it with
// Fabric.SetAdapter. A completed delivery is reported to the fabric's tracker.
func NewOnePortAdapter(fab *Fabric, r *router.Router, node, n, injPort int) *OnePortAdapter {
	a := new(OnePortAdapter)
	a.Init(fab, r, node, n, injPort)
	a.OnTail = func(f flit.Flit, now int64) {
		fab.Tracker.Delivered(f.MsgID, node, now)
	}
	return a
}

// Init is NewOnePortAdapter in place, for an adapter that embeds this one; it
// leaves OnTail for the embedder to set.
func (a *OnePortAdapter) Init(fab *Fabric, r *router.Router, node, n, injPort int) {
	a.N, a.Fab, a.InjPort = n, fab, injPort
	a.Node, a.R = node, r
	a.Queues = make([]PacketQueue, 1)
}

// unicastTo enqueues one unicast packet of message msgID for dst.
func (a *OnePortAdapter) unicastTo(dst int, msgID uint64, msgLen int, now int64) {
	a.Enqueue(0, a.InjPort, flit.Flit{
		Traffic: flit.Unicast, Src: a.Node, Dst: dst,
		PktID: a.Fab.NextPktID(), MsgID: msgID, Gen: now,
	}, msgLen)
}

// SendUnicast queues a unicast message of msgLen flits for dst.
func (a *OnePortAdapter) SendUnicast(dst, msgLen int, now int64) uint64 {
	if dst == a.Node {
		panic("network: unicast to self")
	}
	msgID := a.Fab.NextMsgID()
	a.Fab.Tracker.Register(msgID, ClassUnicast, a.Node, now, 1)
	a.unicastTo(dst, msgID, msgLen, now)
	return msgID
}

// SendBroadcast emits n-1 unicasts (software broadcast).
func (a *OnePortAdapter) SendBroadcast(msgLen int, now int64) uint64 {
	msgID := a.Fab.NextMsgID()
	a.Fab.Tracker.Register(msgID, ClassBroadcast, a.Node, now, a.N-1)
	for d := 0; d < a.N; d++ {
		if d != a.Node {
			a.unicastTo(d, msgID, msgLen, now)
		}
	}
	return msgID
}

// SendMulticast emulates the collective in software: the message registers
// as ClassMulticast with one expected delivery per distinct remote target,
// and one independent unicast per target goes through the single source
// queue. Duplicate targets and self are ignored, mirroring the Quarc
// transceiver's semantics.
func (a *OnePortAdapter) SendMulticast(targets []int, msgLen int, now int64) uint64 {
	expected := CountRemoteTargets(targets, a.Node)
	if expected == 0 {
		panic("network: multicast with no remote targets")
	}
	msgID := a.Fab.NextMsgID()
	a.Fab.Tracker.Register(msgID, ClassMulticast, a.Node, now, expected)
	var seen uint64
	for i, d := range targets {
		if distinctRemote(targets, i, a.Node, &seen) {
			a.unicastTo(d, msgID, msgLen, now)
		}
	}
	return msgID
}

var _ Adapter = (*OnePortAdapter)(nil)
