// Package analytic implements analytical latency models for wormhole-routed
// networks under uniform traffic, over the routes the simulator takes.
//
// The paper verified its OMNeT++ simulator "extensively against analytical
// models for the Spidergon and mesh topologies employing wormhole routing"
// (§3.2, ref [8]). This package provides the same cross-check for this
// repository's simulator:
//
//   - routes walked, not re-derived: every route table is built from
//     model.Routes, which follows each (src, dst) pair through the registered
//     model's own injection rule, RouteFunc, VCFunc and wiring table, so the
//     model and the simulator route alike by construction;
//   - exact average hop counts and zero-load latency (avg hops + M) over
//     every walked route;
//   - per-channel arrival rates from the walked routes, giving channel
//     utilisations, an M/D/1 waiting-time approximation per channel and a
//     mean latency prediction valid at low to moderate load;
//   - the channel-capacity saturation bound (the offered load at which the
//     busiest channel reaches unit utilisation);
//   - closed-form broadcast completion estimates: pipelined BRCP broadcast
//     for the Quarc (diameter + M) versus the store-and-forward unicast
//     chain of the Spidergon (about (N/2)(M + c)).
//
// The integration tests in this package run the flit-level simulator at low
// load and require agreement with these models, reproducing the paper's
// verification methodology.
package analytic

import (
	"math"
	"sync"

	"quarc/internal/model"
	_ "quarc/internal/models" // the registrations whose routes are walked
)

// ErrorBand bounds the relative error of these closed-form predictions
// against the flit-level simulator at the one point where it was measured:
// N 16, M 16, lambda 0.005, where quarc, spidergon, mesh and torus agree
// within +0.1%..+6.0% (this package's validation suite). It claims nothing
// about other sizes, lengths or loads. Degraded serving answers quote it.
const ErrorBand = 0.10

// Prediction is the analytical summary for a topology/workload pair.
type Prediction struct {
	N               int
	MsgLen          int
	Lambda          float64 // offered messages/node/cycle
	AvgHops         float64
	ZeroLoadLatency float64 // avg hops + M
	MeanLatency     float64 // with M/D/1 channel waiting
	MaxChannelUtil  float64
	SaturationRate  float64 // lambda at which the busiest channel saturates
}

// endpoints describes the adapter-side channels, as the switch configuration
// gives them (network.Fabric.Endpoints): how many injection ports share the
// node's offered load, and whether ejection is a shared arbitrated port
// (Spidergon, mesh) or dedicated per input (Quarc all-port).
type endpoints struct {
	injChannels int
	sharedEject bool
}

// pathFunc appends the channel ids of the route s -> d to dst.
type pathFunc func(dst []uint16, s, d int) []uint16

// routeTable is the load-independent half of the model for one network: what
// walking every route yields, computed once. Traversal counts and hop totals
// are O(channels) and always kept; the routes themselves are kept flattened
// while they fit maxPathIDs and walked again per call above it. Channel ids
// and path lengths are uint16s: the built-in models have at most 1,024 nodes
// of five outputs, and buildTable refuses a network with more ids.
type routeTable struct {
	n        int
	ep       endpoints
	count    []float64 // ordered (s, d) pairs routed over each channel id
	maxCount float64   // the busiest channel's count
	totHops  int

	// Every ordered pair's route in (s, d) order, s != d: pair i owns the
	// next hops[i] entries of ids. Both nil when the routes were not kept;
	// only then is paths, and the fabric it walks, kept.
	hops, ids []uint16
	paths     pathFunc
}

// maxPathIDs caps one table's flattened routes (2 bytes an entry, 2 MiB a
// table). Every ring-family size, meshes up to 17x17 and tori up to 18x18
// fit; if a process asked for every network ForModel accepts, the kept routes
// would come to 15.9 MB in all. Larger meshes keep only their counts and
// walk their routes again on each call. A constant, not a knob: it
// bounds memory, and no result depends on it.
const maxPathIDs = 1 << 20

// newRouteTable walks all n(n-1) routes of a network with numChannels
// channel ids once, counting each channel's traversals and keeping the routes
// while they fit maxIDs.
func newRouteTable(n, numChannels int, paths pathFunc, ep endpoints, maxIDs int) *routeTable {
	t := &routeTable{n: n, ep: ep, count: make([]float64, numChannels), paths: paths}
	hops, ids := make([]uint16, 0, n*(n-1)), []uint16(nil)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			start := len(ids)
			if hops == nil { // over the cap: ids is scratch
				start, ids = 0, ids[:0]
			}
			ids = paths(ids, s, d)
			p := ids[start:]
			t.totHops += len(p)
			for _, ch := range p {
				t.count[ch]++
			}
			if hops != nil && len(ids) > maxIDs {
				hops = nil // the routes do not fit: count them, keep none
			}
			if hops != nil {
				hops = append(hops, uint16(len(p)))
			}
		}
	}
	for _, c := range t.count {
		t.maxCount = max(t.maxCount, c)
	}
	if hops != nil {
		// Exact-size routes, and no walker: a kept table holds no fabric.
		t.hops, t.ids, t.paths = hops, append([]uint16(nil), ids...), nil
	}
	return t
}

// eachRoute calls visit with every ordered pair's channel ids, in (s, d)
// order, s != d: slices of the kept routes, or above the cap the walker's
// output in one reused scratch slice. The slice is only valid during the
// call.
func (t *routeTable) eachRoute(visit func(path []uint16)) {
	var scratch []uint16
	pair, off := 0, 0
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if s == d {
				continue
			}
			if t.ids == nil {
				scratch = t.paths(scratch[:0], s, d)
				visit(scratch)
				continue
			}
			end := off + int(t.hops[pair])
			visit(t.ids[off:end])
			pair, off = pair+1, end
		}
	}
}

// saturationRate is the offered load at which the busiest channel reaches
// unit utilisation with msgLen-flit messages.
func (t *routeTable) saturationRate(msgLen int) float64 {
	if t.maxCount == 0 {
		return math.Inf(1)
	}
	return float64(t.n-1) / (t.maxCount * float64(msgLen))
}

// predict is the load-dependent half of the channel-level model: O(channels)
// for the utilisations and M/D/1 waits, then one replay of the routes for the
// mean latency. The order of the float additions is a contract: explore
// payloads carry MeanLatency and the benchmark's golden digests pin it, so
// each pair's latency is summed as written here and the pairs are added in
// (s, d) order. Regrouping into a per-channel count x wait sum is the same
// number on paper and a different one in float64.
func (t *routeTable) predict(msgLen int, lambda float64) Prediction {
	if msgLen < 2 {
		panic("analytic: message length must be at least 2")
	}
	n := t.n
	// Channel message rate: each node offers lambda msgs/cycle uniformly
	// over n-1 destinations.
	svc := float64(msgLen) // flit-cycles a message occupies a channel
	wait := make([]float64, len(t.count))
	maxUtil := 0.0
	for ch, c := range t.count {
		rate := lambda * c / float64(n-1)
		rho := rate * svc
		if rho > maxUtil {
			maxUtil = rho
		}
		if rho < 1 {
			// M/D/1 mean waiting time: rho * S / (2 (1 - rho)).
			wait[ch] = rho * svc / (2 * (1 - rho))
		} else {
			wait[ch] = math.Inf(1)
		}
	}

	// Endpoint waiting: the injection queue(s) see the node's own offered
	// load; with uniform traffic each node also receives lambda messages per
	// cycle, so a shared ejection port is an M/D/1 server at the same rate.
	md1 := func(rate float64) float64 {
		r := rate * svc
		if r >= 1 {
			return math.Inf(1)
		}
		return r * svc / (2 * (1 - r))
	}
	endpointWait := md1(lambda / float64(t.ep.injChannels))
	if t.ep.sharedEject {
		endpointWait += md1(lambda)
	}

	// Mean latency over pairs: endpoint waiting + hops + M + per-channel
	// waiting along the path.
	var latSum float64
	t.eachRoute(func(p []uint16) {
		l := endpointWait + float64(len(p)) + float64(msgLen)
		for _, ch := range p {
			l += wait[ch]
		}
		latSum += l
	})

	pairs := n * (n - 1)
	avgHops := float64(t.totHops) / float64(pairs)
	return Prediction{
		N: n, MsgLen: msgLen, Lambda: lambda,
		AvgHops:         avgHops,
		ZeroLoadLatency: avgHops + float64(msgLen),
		MeanLatency:     latSum / float64(pairs),
		MaxChannelUtil:  maxUtil,
		SaturationRate:  t.saturationRate(msgLen),
	}
}

// tables memoises one routeTable per network: a table depends on the routes
// and the size alone, never on the load. A first call builds its table under
// the lock — at worst under a second, once per process, for a 1024-node
// mesh; callers racing for it wait and share it. A model whose network does
// not build is memoised as nil.
var tables = struct {
	sync.Mutex
	m map[tableKey]*routeTable
}{m: map[tableKey]*routeTable{}}

// tableKey names a network: a registered model at a size it accepts.
type tableKey struct {
	model string
	n     int
}

// unanswered is the one registered model ForModel does not answer, although
// its routes walk like any other's: explore payloads for ring carry no
// analytic fields, and the benchmark's golden digests pin those payloads, so
// answering it waits for a declared refresh of them.
const unanswered = "ring"

// tableFor returns the memoised route table of a registered model at a size
// it accepts, or nil when the model has no table: unknown, unanswered, the
// size refused, or a network that does not build.
func tableFor(name string, n int) *routeTable {
	m, ok := model.Lookup(name)
	if !ok || m.Name != name || name == unanswered || m.CheckN != nil && m.CheckN(n) != nil {
		return nil
	}
	k := tableKey{name, n}
	tables.Lock()
	defer tables.Unlock()
	t, ok := tables.m[k]
	if !ok {
		t = buildTable(name, n, maxPathIDs)
		tables.m[k] = t
	}
	return t
}

// buildTable walks every route of the named model's n-node network, keeping
// at most maxIDs of their channel ids. A channel is an output port: its id
// is node * outputs + port, the same for every node, as every registered
// model's switches are alike. It returns nil when the network does not build
// or its routes do not walk (a builder that errs or panics): whoever runs
// the model meets that in its own build.
func buildTable(name string, n, maxIDs int) (t *routeTable) {
	defer func() {
		if recover() != nil {
			t = nil
		}
	}()
	fab, err := model.Routes(name, n)
	if err != nil {
		return nil
	}
	inj, shared := fab.Endpoints(0)
	nout := fab.Routers[0].Config().NOut
	if n*nout > 1<<16 { // a channel id must fit uint16
		return nil
	}
	return newRouteTable(n, n*nout, func(ids []uint16, s, d int) []uint16 {
		fab.Walk(s, d, func(node, out, _ int) { ids = append(ids, uint16(node*nout+out)) })
		return ids
	}, endpoints{injChannels: inj, sharedEject: shared}, maxIDs)
}

// ForModel predicts uniform-traffic unicast behaviour of a registered model
// by name, validating the size instead of panicking: ok is false for a name
// that is not a registered model's, for ring (unanswered), for a size the
// model refuses, a message shorter than two flits or a negative load. Every
// other model is analysed over its own walked routes and endpoints — the
// Quarc ablation presets included, whose injection ports and routes are the
// Quarc's.
func ForModel(name string, n, msgLen int, lambda float64) (Prediction, bool) {
	if msgLen < 2 || lambda < 0 {
		return Prediction{}, false
	}
	t := tableFor(name, n)
	if t == nil {
		return Prediction{}, false
	}
	return t.predict(msgLen, lambda), true
}

// SaturationRate is ForModel(model, n, msgLen, 0).SaturationRate without the
// prediction: it reads the memoised busiest-channel count, so a warm call is
// O(1) and even a cold one never replays routes for a latency. The admission
// classifier and the load ladders need only this number.
func SaturationRate(name string, n, msgLen int) (float64, bool) {
	if msgLen < 2 {
		return 0, false
	}
	t := tableFor(name, n)
	if t == nil {
		return 0, false
	}
	return t.saturationRate(msgLen), true
}

// QuarcBroadcastCompletion is the zero-load completion latency of a true
// BRCP broadcast: the deepest branch has diameter n/4 hops and the tail
// follows msgLen-1 flits behind the header.
func QuarcBroadcastCompletion(n, msgLen int) float64 {
	return float64(n/4 + msgLen)
}

// SpidergonBroadcastCompletion is the zero-load completion latency of the
// broadcast-by-unicast chain: ceil((n-1)/2) sequential store-and-forward
// stages, each taking one hop plus msgLen flit cycles plus perHopOverhead
// cycles of ejection/re-injection handling.
func SpidergonBroadcastCompletion(n, msgLen int, perHopOverhead float64) float64 {
	stages := float64((n) / 2) // ceil((n-1)/2)
	return stages * (float64(msgLen) + 1 + perHopOverhead)
}

// BroadcastAdvantage is the predicted Quarc-vs-Spidergon broadcast speedup.
func BroadcastAdvantage(n, msgLen int) float64 {
	return SpidergonBroadcastCompletion(n, msgLen, 1) / QuarcBroadcastCompletion(n, msgLen)
}
