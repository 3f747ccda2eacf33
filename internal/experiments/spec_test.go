package experiments

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"quarc/internal/flit"
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/router"
)

// The spec fabric is the reference the equivalence suites hold the simulator
// to: a deliberately naive model of the whole network, written from the
// router package doc and the paper's switch (§2.3–§2.6), that shares no
// switch code with internal/router or the fabric's stepping. Every router
// steps every cycle; each lane is a Go slice of flits; flow control reads the
// free space of the downstream lane, the CH_STATUS_N lines of §2.3.1, where
// the simulator keeps sender-side credit counters. There is no slab,
// occupancy mask, parking, settling, route cache, sleep, activity set or
// worker pool.
//
// From a built model it takes each switch's router.Config (Route, VCNext,
// InLanes, NOut, EjectPort, VCs, Depth, Reach), the wiring (Fabric.Wire) and
// the PE side: the adapters' sends and injection rule, their source queues,
// the packet table, reassembly, the tracker and OnTail. It calls no
// router.Router method but Config and no Fabric stepping method.
//
// A cycle:
//  1. every switch arbitrates against the start-of-cycle state of the
//     network;
//  2. every granted flit leaves its lane;
//  3. node by node in ascending order, each switch's moves in grant order,
//     a flit is delivered to the PE (when its move delivers) and then sent
//     over its link;
//  4. every adapter offers the next flit of each source queue to its
//     injection lane, which takes it if it has room.
type specFabric struct {
	fab       *network.Fabric // the PE side only
	bases     []*network.BaseAdapter
	sw        []*specSwitch
	moves     [][]specMove // per node: this cycle's grants
	now       int64
	delivered uint64 // flits handed to PEs
	forwarded uint64 // flits sent over links
}

// specSwitch is one router: its configuration, its wiring and its state.
type specSwitch struct {
	cfg   router.Config
	wires []network.OutputWire // [out]
	fed   []bool               // [in]: the far end of a link, not an injection port
	lanes [][][]router.Slot    // [in][lane]: buffered flits, head first
	fcu   [][]specFCU          // [in][lane]
	vcRR  []int                // [in]: VC arbiter pointer
	bids  []specBid            // [in]: this cycle's candidate
	opcRR []int                // [out]: OPC pointer
	owner [][]int              // [out][vc]: holding lane as in*16+lane, or -1
	sent  []uint64             // [out]: flits sent
	stats router.Stats
}

// specFCU is a lane's binding, from its packet's header grant to its tail.
type specFCU struct {
	active bool
	dec    router.Decision
	vc     int // the downstream VC the packet holds
}

// specBid is an input port's candidate for the cycle.
type specBid struct {
	ok   bool // the port presents a flit
	lane int
	dec  router.Decision
	vc   int // the VC the lane holds, or the one its waiting header requests
}

// specMove is one granted flit.
type specMove struct {
	in, lane, out, vc int
	dec               router.Decision
	deliver           bool
	s                 router.Slot // the flit, once it has left its lane
}

// baseOf returns the BaseAdapter a model's adapter is or embeds.
func baseOf(a network.Adapter) *network.BaseAdapter {
	if b, ok := a.(*network.BaseAdapter); ok {
		return b
	}
	return reflect.ValueOf(a).Elem().FieldByName("BaseAdapter").Addr().Interface().(*network.BaseAdapter)
}

// newSpecFabric builds the reference for fab's model. fab must not step.
func newSpecFabric(fab *network.Fabric) *specFabric {
	f := &specFabric{fab: fab, moves: make([][]specMove, fab.N)}
	for node := 0; node < fab.N; node++ {
		cfg := fab.Routers[node].Config()
		nIn := len(cfg.InLanes)
		sw := &specSwitch{cfg: cfg,
			wires: make([]network.OutputWire, cfg.NOut),
			fed:   make([]bool, nIn),
			lanes: make([][][]router.Slot, nIn),
			fcu:   make([][]specFCU, nIn),
			vcRR:  make([]int, nIn),
			bids:  make([]specBid, nIn),
			opcRR: make([]int, cfg.NOut),
			owner: make([][]int, cfg.NOut),
			sent:  make([]uint64, cfg.NOut),
		}
		for i, nl := range cfg.InLanes {
			sw.lanes[i] = make([][]router.Slot, nl)
			for l := range sw.lanes[i] {
				sw.lanes[i][l] = make([]router.Slot, 0, cfg.Depth)
			}
			sw.fcu[i] = make([]specFCU, nl)
		}
		for o := range sw.wires {
			sw.wires[o] = fab.Wire(node, o)
			sw.owner[o] = make([]int, cfg.VCs)
			for v := range sw.owner[o] {
				sw.owner[o][v] = -1
			}
		}
		f.sw = append(f.sw, sw)
		f.bases = append(f.bases, baseOf(fab.Adapters[node]))
	}
	for _, sw := range f.sw {
		for _, w := range sw.wires {
			if !w.Sink {
				f.sw[w.Dst.Node].fed[w.Dst.Port] = true
			}
		}
	}
	return f
}

// The clock RunContext drives.

func (f *specFabric) Now() int64 { return f.now }

// Idle is never true: the reference steps every cycle, empty or not.
func (f *specFabric) Idle() bool { return false }

func (f *specFabric) AdvanceIdle(int64) { panic("spec: the reference steps every cycle") }

func (f *specFabric) FlitsDelivered() uint64 { return f.delivered }

func (f *specFabric) StepBatch(n int64, hook func() bool) int64 {
	for done := int64(0); done < n; done++ {
		if hook != nil && hook() {
			return done
		}
		f.step()
	}
	return n
}

func (f *specFabric) step() {
	for node := range f.sw {
		f.moves[node] = f.arbitrate(node, f.moves[node][:0])
	}
	for node, sw := range f.sw {
		for k := range f.moves[node] {
			sw.pop(&f.moves[node][k])
		}
	}
	for node, sw := range f.sw {
		for k := range f.moves[node] {
			m := &f.moves[node][k]
			if m.deliver {
				f.deliver(node, m)
			}
			if m.out == router.NoOutput || sw.wires[m.out].Sink {
				continue
			}
			// The hop count rises only on a flit forwarded from a network
			// input: the multicast bitstring is read shifted by it.
			s := m.s
			if sw.fed[m.in] && s.Hop < 64 {
				s.Hop++
			}
			w := sw.wires[m.out]
			f.sw[w.Dst.Node].push(w.Dst.Port, m.vc, s)
			f.forwarded++
		}
	}
	for node, b := range f.bases {
		sw := f.sw[node]
		for qi := range b.Queues {
			q := &b.Queues[qi]
			if s, port := q.NextFlit(); s != nil && len(sw.lanes[port][0]) < sw.cfg.Depth {
				sw.push(port, 0, *s)
				q.Advance()
			}
		}
	}
	f.now++
}

// arbitrate appends node's grants for the cycle to moves and accounts the
// cycle in its statistics.
func (f *specFabric) arbitrate(node int, moves []specMove) []specMove {
	sw := f.sw[node]
	buffered := 0
	for _, lanes := range sw.lanes {
		for _, ln := range lanes {
			buffered += len(ln)
		}
	}
	sw.stats.OccupancySum += uint64(buffered)
	sw.stats.Cycles++

	// The VC arbiter of each input port presents its first nonempty lane at
	// or after its pointer. A decision with no output needs no OPC: it is
	// granted at once, in input order, before any output is arbitrated.
	for i, lanes := range sw.lanes {
		b := &sw.bids[i]
		b.ok = false
		for k := range lanes {
			if l := (sw.vcRR[i] + k) % len(lanes); len(lanes[l]) > 0 {
				b.ok, b.lane = true, l
				b.dec, b.vc = f.decide(node, i, l)
				break
			}
		}
		if b.ok && b.dec.Out == router.NoOutput {
			b.ok = false
			moves = append(moves, specMove{in: i, lane: b.lane, out: router.NoOutput, dec: b.dec, deliver: true})
			sw.stats.Grants++
		}
	}

	// Each output, in output order, serves the first sendable bid at or
	// after its pointer and moves the pointer past it; every other bid
	// stalls, and its VC arbiter moves past the stalled lane.
	nIn := len(sw.lanes)
	for o := range sw.wires {
		start, served := sw.opcRR[o], false
		for k := 0; k < nIn; k++ {
			i := (start + k) % nIn
			b := &sw.bids[i]
			if !b.ok || b.dec.Out != o {
				continue
			}
			vc, cause, ok := f.sendable(sw, o, i, b)
			if ok && !served {
				served = true
				sw.opcRR[o] = (i + 1) % nIn
				moves = append(moves, specMove{in: i, lane: b.lane, out: o, vc: vc, dec: b.dec,
					deliver: b.dec.Clone || o == sw.cfg.EjectPort && b.dec.Eject})
				sw.stats.Grants++
				continue
			}
			if ok {
				cause = router.StallArbLost
			}
			sw.stats.Stalls[cause]++
			sw.vcRR[i] = (b.lane + 1) % len(sw.lanes[i])
		}
	}
	return moves
}

// decide returns the decision governing the head flit of lane (i, l) and the
// downstream VC it holds or requests: the packet's binding once its header
// has been granted, else the route of the waiting header, computed afresh.
func (f *specFabric) decide(node, i, l int) (router.Decision, int) {
	sw := f.sw[node]
	if fc := sw.fcu[i][l]; fc.active {
		return fc.dec, fc.vc
	}
	s := &sw.lanes[i][l][0]
	if s.Kind != flit.Header {
		panic(fmt.Sprintf("spec: node %d in %d lane %d: %v flit heads an idle lane", node, i, l, s.Kind))
	}
	dec := sw.cfg.Route(node, i, *f.fab.Packets.Header(s), int(s.Hop))
	if o := dec.Out; o != router.NoOutput && sw.cfg.Reach != nil && sw.cfg.Reach[o] != nil && !slices.Contains(sw.cfg.Reach[o], i) {
		panic(fmt.Sprintf("spec: node %d routes input %d to unreachable output %d", node, i, o))
	}
	vc := -1
	if dec.Out != router.NoOutput && dec.Out != sw.cfg.EjectPort {
		vc = sw.cfg.VCNext(node, dec.Out, i, l)
	}
	return dec, vc
}

// sendable reports whether bid b of input i can cross to output o this cycle
// and on which downstream VC; when it cannot, cause names the resource it
// lacks. A waiting header needs its VC free (the shared ejection port offers
// its lowest free VC), and every flit needs room in its downstream lane.
func (f *specFabric) sendable(sw *specSwitch, o, i int, b *specBid) (vc int, cause router.StallCause, ok bool) {
	vc = b.vc
	if !sw.fcu[i][b.lane].active {
		if o == sw.cfg.EjectPort {
			vc = slices.Index(sw.owner[o], -1)
		}
		if vc < 0 || sw.owner[o][vc] >= 0 {
			return 0, router.StallVCBusy, false
		}
	}
	if w := sw.wires[o]; !w.Sink {
		down := f.sw[w.Dst.Node]
		if len(down.lanes[w.Dst.Port][vc]) == down.cfg.Depth {
			return 0, router.StallNoCredit, false
		}
	}
	return vc, 0, true
}

// pop takes move m's flit off its lane: a header binds the lane (and the
// output VC it takes) to its packet, a tail releases both.
func (sw *specSwitch) pop(m *specMove) {
	ln := &sw.lanes[m.in][m.lane]
	m.s = (*ln)[0]
	*ln = append((*ln)[:0], (*ln)[1:]...)
	fc := &sw.fcu[m.in][m.lane]
	switch m.s.Kind {
	case flit.Header:
		*fc = specFCU{active: true, dec: m.dec, vc: m.vc}
	case flit.Tail:
		fc.active = false
	}
	if m.out == router.NoOutput {
		return
	}
	sw.sent[m.out]++
	switch m.s.Kind {
	case flit.Header:
		sw.owner[m.out][m.vc] = m.in*16 + m.lane
	case flit.Tail:
		sw.owner[m.out][m.vc] = -1
	}
}

func (sw *specSwitch) push(in, lane int, s router.Slot) {
	ln := &sw.lanes[in][lane]
	if len(*ln) == sw.cfg.Depth {
		panic(fmt.Sprintf("spec: node %d in %d lane %d overflows", sw.cfg.Node, in, lane))
	}
	*ln = append(*ln, s)
}

// deliver hands move m's flit to node's PE; a tail that is not also
// forwarded takes its packet out of the table.
func (f *specFabric) deliver(node int, m *specMove) {
	f.delivered++
	f.fab.Adapters[node].Receive(f.fab.Packets.Header(&m.s), m.s, f.now)
	if m.s.Kind == flit.Tail && (m.out == router.NoOutput || f.sw[node].wires[m.out].Sink) {
		f.fab.Packets.Free(m.s.Pkt)
	}
}

// stats returns each switch's counters and link loads.
func (f *specFabric) stats() (routers []router.Stats, links [][]uint64) {
	for _, sw := range f.sw {
		routers = append(routers, sw.stats)
		links = append(links, slices.Clone(sw.sent))
	}
	return routers, links
}

// delivery is one flit handed to a PE.
type delivery struct {
	cycle    int64
	node     int
	msg, pkt uint64
	seq      int32
}

func (d delivery) String() string {
	return fmt.Sprintf("cycle %d: message %d packet %d flit %d at node %d", d.cycle, d.msg, d.pkt, d.seq, d.node)
}

// peLog stands in for a node's adapter at the PE boundary: it logs every
// delivery and passes it on.
type peLog struct {
	network.Adapter
	node int
	log  *[]delivery
}

func (p *peLog) Receive(h *router.Header, s router.Slot, now int64) {
	*p.log = append(*p.log, delivery{now, p.node, h.MsgID, h.PktID, s.Seq})
	p.Adapter.Receive(h, s, now)
}

// logDeliveries wraps every adapter of fab in a peLog writing to log.
func logDeliveries(fab *network.Fabric, log *[]delivery) {
	for node, a := range fab.Adapters {
		fab.SetAdapter(node, &peLog{Adapter: a, node: node, log: log})
	}
}

// probeSpec runs cfg through RunContext on the spec fabric in place of the
// built fabric's switches.
func probeSpec(t testing.TB, cfg Config) (Result, fabricProbe) {
	t.Helper()
	var p fabricProbe
	var spec *specFabric
	ctx := withClock(context.Background(), func(fab *network.Fabric) clock {
		spec = newSpecFabric(fab)
		logDeliveries(fab, &p.deliveries)
		return spec
	})
	ctx = withFabricObserver(ctx, func(fab *network.Fabric) {
		p.cycle, p.delivered, p.forwarded = spec.now, spec.delivered, spec.forwarded
		p.completed, p.duplicates, p.inflight = fab.Tracker.Completed(), fab.Tracker.Duplicates(), fab.Tracker.InFlight()
		p.stepped = uint64(fab.N) * uint64(spec.now)
		p.routers, p.links = spec.stats()
	})
	res, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

// firstDifference names the first delivery at which run a's log and run
// b's part, or returns "".
func firstDifference(a string, as []delivery, b string, bs []delivery) string {
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] != bs[i] {
			return fmt.Sprintf("delivery %d differs: %s %v, %s %v", i, a, as[i], b, bs[i])
		}
	}
	switch {
	case len(as) > len(bs):
		return fmt.Sprintf("%s delivered %d flits, %s %d; %s's next: %v", a, len(as), b, len(bs), a, as[len(bs)])
	case len(bs) > len(as):
		return fmt.Sprintf("%s delivered %d flits, %s %d; %s's next: %v", a, len(as), b, len(bs), b, bs[len(as)])
	}
	return ""
}

// expectMatchesSpec fails the test unless a fabric run equals the spec's in
// everything observable: every flit delivered (the first difference is
// named), the full Result, the fabric and tracker counters, and every
// router's statistics and link loads.
func expectMatchesSpec(t *testing.T, what string, fRes Result, fp fabricProbe, sRes Result, sp fabricProbe) {
	t.Helper()
	if d := firstDifference("fabric", fp.deliveries, "spec", sp.deliveries); d != "" {
		t.Errorf("%s: %s", what, d)
	}
	if fRes != sRes {
		t.Errorf("%s: Result diverged:\nfabric %+v\nspec   %+v", what, fRes, sRes)
	}
	if fp.cycle != sp.cycle || fp.delivered != sp.delivered || fp.forwarded != sp.forwarded {
		t.Errorf("%s: fabric counters diverged: fabric {cyc %d del %d fwd %d} spec {cyc %d del %d fwd %d}",
			what, fp.cycle, fp.delivered, fp.forwarded, sp.cycle, sp.delivered, sp.forwarded)
	}
	if fp.completed != sp.completed || fp.duplicates != sp.duplicates || fp.inflight != sp.inflight {
		t.Errorf("%s: tracker counters diverged: fabric {done %d dup %d inflight %d} spec {done %d dup %d inflight %d}",
			what, fp.completed, fp.duplicates, fp.inflight, sp.completed, sp.duplicates, sp.inflight)
	}
	for node := range sp.routers {
		if fp.routers[node] != sp.routers[node] {
			t.Errorf("%s: router %d stats diverged:\nfabric %+v\nspec   %+v", what, node, fp.routers[node], sp.routers[node])
		}
		if !slices.Equal(fp.links[node], sp.links[node]) {
			t.Errorf("%s: router %d link loads diverged: fabric %v spec %v", what, node, fp.links[node], sp.links[node])
		}
	}
}

// specSizes are the network sizes the differential test runs each model at.
func specSizes(m model.Model) []int {
	var ns []int
	for _, n := range []int{8, 9, 12, 16} {
		if m.CheckN == nil || m.CheckN(n) == nil {
			ns = append(ns, n)
		}
	}
	return ns
}

// TestFabricMatchesSpec is the differential test: every registered model at
// every size from 8 to 16 nodes it accepts (3x3 and 4x4 for the mesh and the
// torus), under the five activityWorkloads shapes at a low load and past
// saturation, five seeds each, run by RunContext on the fabric and on the spec
// fabric; and pooled 12x12 meshes and tori at two and three step workers,
// where links cross shard boundaries. Every flit's delivery, the Result, the
// tracker, and every router's statistics and link loads must agree. The spec's
// flow control is the CH_STATUS model of every link, so on every cycle of
// every model this also holds the fabric's credit counters to the downstream
// lanes' free space.
func TestFabricMatchesSpec(t *testing.T) {
	rates := map[string]float64{"lowload": 0.004, "saturated": 0.15}
	for _, m := range model.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range specSizes(m) {
				for rateName, rate := range rates {
					for wlName, cfg := range activityWorkloads(rate) {
						cfg.Model, cfg.N = m.Name, n
						cfg.Warmup, cfg.Measure, cfg.Drain = 30, 150, 800
						for seed := uint64(1); seed <= 5; seed++ {
							cfg.Seed = seed
							fRes, fp := probeRun(t, cfg)
							sRes, sp := probeSpec(t, cfg)
							expectMatchesSpec(t, fmt.Sprintf("N=%d %s/%s seed %d", n, rateName, wlName, seed), fRes, fp, sRes, sp)
							if t.Failed() {
								return
							}
						}
					}
				}
			}
		})
	}
	for _, name := range []string{"mesh", "torus"} {
		name := name
		t.Run(name+"-144-pooled", func(t *testing.T) {
			t.Parallel()
			for rateName, rate := range rates {
				for wlName, cfg := range activityWorkloads(rate) {
					cfg.Model, cfg.N = name, 144
					cfg.Warmup, cfg.Measure, cfg.Drain = 20, 100, 400
					sRes, sp := probeSpec(t, cfg)
					for _, w := range []int{2, 3} {
						cfg.StepWorkers, cfg.stepGrain = w, 1
						fRes, fp := probeRun(t, cfg)
						expectMatchesSpec(t, fmt.Sprintf("%s/%s: %d workers", rateName, wlName, w), fRes, fp, sRes, sp)
						if t.Failed() {
							return
						}
					}
				}
			}
		})
	}
}

// callbackOutcome is what a delivery-callback run observes.
type callbackOutcome struct {
	gen, done int64 // the reply's send and completion cycles
	routers   []router.Stats
	links     [][]uint64
}

// runCallback builds model name at n nodes and sends a request of m flits
// from src to dst; the tracker's OnDone, fired in the cycle's ordered deliver
// half, answers its completion with a reply from `from` to `to`, a node idle
// until then. It steps the fabric (at workers step workers, grain 1) or, with
// spec, the spec fabric, until the reply lands, and checks that every flit is
// accounted for.
func runCallback(t *testing.T, name string, n, m, src, dst, from, to, workers int, spec bool) callbackOutcome {
	t.Helper()
	fab, nodes, err := model.Build(name, model.BuildConfig{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	var clk clock = fab
	var sf *specFabric
	if spec {
		sf = newSpecFabric(fab)
		clk = sf
	} else {
		fab.SetStepWorkers(workers)
		fab.SetStepGrain(1)
	}
	var out callbackOutcome
	request := nodes[src].SendUnicast(dst, m, 0)
	var reply uint64
	fab.Tracker.OnDone = func(r network.MessageRecord) {
		switch r.MsgID {
		case request:
			out.gen = clk.Now()
			reply = nodes[from].SendUnicast(to, m, out.gen)
		case reply:
			out.done = r.Last
		}
	}
	for i := 0; i < 1000 && (reply == 0 || fab.Tracker.InFlight() > 0); i++ {
		clk.StepBatch(1, nil)
	}
	what := fmt.Sprintf("%s workers=%d spec=%v", name, workers, spec)
	if fab.Tracker.InFlight() != 0 || fab.Tracker.Completed() != 2 || out.done == 0 {
		t.Fatalf("%s: %d completed, %d in flight", what, fab.Tracker.Completed(), fab.Tracker.InFlight())
	}
	if got := clk.FlitsDelivered(); got != uint64(2*m) {
		t.Fatalf("%s: %d flits delivered, want %d", what, got, 2*m)
	}
	if live := fab.Packets.Live(); live != 0 {
		t.Fatalf("%s: %d packets left in the table", what, live)
	}
	if spec {
		out.routers, out.links = sf.stats()
		return out
	}
	fab.SyncStats()
	for _, r := range fab.Routers {
		out.routers = append(out.routers, r.Stats())
	}
	out.links = fab.LinkLoad()
	return out
}

// expectSameCallback fails the test unless a fabric's delivery-callback run
// matches the spec fabric's.
func expectSameCallback(t *testing.T, got, want callbackOutcome) {
	t.Helper()
	if got.gen != want.gen || got.done != want.done {
		t.Fatalf("reply sent at cycle %d and completed at %d, spec %d and %d", got.gen, got.done, want.gen, want.done)
	}
	for node := range want.routers {
		if got.routers[node] != want.routers[node] || !slices.Equal(got.links[node], want.links[node]) {
			t.Fatalf("router %d stats %+v links %v, spec %+v links %v",
				node, got.routers[node], got.links[node], want.routers[node], want.links[node])
		}
	}
}

// TestDeliveryCallbackEnqueuesAtSleepingNode: a delivery callback that
// enqueues a packet at another, idle-sleeping node. On a 16-node Quarc the
// request runs 0 -> 8 -> 7 -> 6 -> 5, so node 9 sleeps until the callback
// wakes it with the reply. The activity-stepped fabric feeds the woken
// sleeper in the callback's own cycle, as a stepped node is, so the reply's
// cycles and every router's statistics equal the spec fabric's.
func TestDeliveryCallbackEnqueuesAtSleepingNode(t *testing.T) {
	const n, m = 16, 8
	want := runCallback(t, "quarc", n, m, 0, 5, 9, 12, 1, true)
	expectSameCallback(t, runCallback(t, "quarc", n, m, 0, 5, 9, 12, 1, false), want)
}

// TestDeliveryCallbackEnqueuesAtSleepingNodePooled is the delivery-callback
// case on the worker pool: on a 16x16 mesh stepped by two and three workers
// at grain 1, a request inside the first shard completes, and its callback —
// run by worker 0 in the ordered half — enqueues a reply at a drained sleeper
// another worker owns. The owner feeds the woken node in that cycle's pass 2,
// so the reply's cycles and every router's statistics equal the spec
// fabric's.
func TestDeliveryCallbackEnqueuesAtSleepingNodePooled(t *testing.T) {
	const w, h, m = 16, 16, 8
	const src, dst = 0, 3*w + 5 // rows 0-3: the first shard's nodes
	const from, to = 200, 250   // the last shard's at two and three workers
	want := runCallback(t, "mesh", w*h, m, src, dst, from, to, 1, true)
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			expectSameCallback(t, runCallback(t, "mesh", w*h, m, src, dst, from, to, workers, false), want)
		})
	}
}
