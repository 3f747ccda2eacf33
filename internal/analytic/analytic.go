// Package analytic implements analytical latency models for wormhole-routed
// Quarc, Spidergon and mesh networks under uniform traffic.
//
// The paper verified its OMNeT++ simulator "extensively against analytical
// models for the Spidergon and mesh topologies employing wormhole routing"
// (§3.2, ref [8]). This package provides the same cross-check for this
// repository's simulator:
//
//   - exact average hop counts and zero-load latency (avg hops + M) from
//     full path enumeration;
//   - per-channel arrival rates from routing-aware path enumeration, giving
//     channel utilisations, an M/D/1 waiting-time approximation per channel
//     and a mean latency prediction valid at low to moderate load;
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
	"fmt"
	"math"
	"sync"

	"quarc/internal/topology"
)

// ErrorBand is the relative error envelope of these closed-form predictions
// against the flit-level simulator, as pinned by this package's validation
// suite: every covered topology agrees within 10% at low load (measured
// +0.1%..+6.0%). Degraded serving answers quote it so clients know how far
// an analytic estimate may sit from the simulated truth.
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

// endpoints describes the adapter-side channels: how many injection queues
// share the node's offered load, and whether ejection is a shared arbitrated
// port (Spidergon, mesh) or dedicated per input (Quarc all-port).
type endpoints struct {
	injChannels int
	sharedEject bool
}

// family is a routing function the channel-level model can enumerate.
type family uint8

const (
	famQuarc family = iota
	famSpidergon
	famMesh // mesh or torus: XY routing, with or without wraparound
)

// pathFunc appends the channel ids of the route s -> d to dst.
type pathFunc func(dst []uint16, s, d int) []uint16

// routeTable is the load-independent half of the model for one network: what
// full path enumeration yields, computed once. Traversal counts and hop
// totals are O(channels) and always kept; the routes themselves are kept
// flattened while they fit maxPathIDs and re-enumerated per call above it.
// uint16 holds any channel id or path length of a network topology.NewMesh
// accepts (at most 1024 nodes) or a ring family has (at most 64).
type routeTable struct {
	n        int
	ep       endpoints
	count    []float64 // ordered (s, d) pairs routed over each channel id
	maxCount float64   // the busiest channel's count
	totHops  int

	// Every ordered pair's route in (s, d) order, s != d: pair i owns the
	// next hops[i] entries of ids. Both nil when the routes were not kept.
	hops, ids []uint16
	paths     pathFunc
}

// maxPathIDs caps one table's flattened routes (2 bytes an entry, 2 MiB a
// table). Every ring-family size, meshes up to 17x17 and tori up to 18x18
// fit; if a process asked for every network ForModel accepts, the kept routes
// would come to 15.2 MB in all. Larger meshes keep only their counts and
// stream routes from the enumerator on each call. A constant, not a knob: it
// bounds memory, and no result depends on it.
const maxPathIDs = 1 << 20

// newRouteTable enumerates all n(n-1) routes of a network with numChannels
// channel ids: once for the counts, and once more to keep the routes
// themselves if they fit maxIDs.
func newRouteTable(n, numChannels int, paths pathFunc, ep endpoints, maxIDs int) *routeTable {
	t := &routeTable{n: n, ep: ep, count: make([]float64, numChannels), paths: paths}
	t.eachRoute(func(p []uint16) {
		t.totHops += len(p)
		for _, ch := range p {
			t.count[ch]++
		}
	})
	for _, c := range t.count {
		t.maxCount = max(t.maxCount, c)
	}
	if t.totHops <= maxIDs {
		hops, ids := make([]uint16, 0, n*(n-1)), make([]uint16, 0, t.totHops)
		t.eachRoute(func(p []uint16) {
			hops = append(hops, uint16(len(p)))
			ids = append(ids, p...)
		})
		t.hops, t.ids = hops, ids
	}
	return t
}

// eachRoute calls visit with every ordered pair's channel ids, in (s, d)
// order, s != d: slices of the kept routes, or — before they are kept and
// above the cap — the enumerator's output in one reused scratch slice. The
// slice is only valid during the call.
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

// tables memoises one routeTable per network: a table depends on the routing
// function and the size alone, never on the load. A first call builds its
// table under the lock — at worst a few hundred milliseconds, once per
// process, for a 1024-node mesh; callers racing for it wait and share it.
var tables = struct {
	sync.Mutex
	m map[tableKey]*routeTable
}{m: map[tableKey]*routeTable{}}

// tableKey names a network: w is the node count of a ring family, w x h the
// shape of a mesh, or of a torus.
type tableKey struct {
	fam   family
	w, h  int
	torus bool
}

// tableFor returns the memoised route table of a network whose size is valid
// for its family, building it on first use.
func tableFor(k tableKey) *routeTable {
	tables.Lock()
	defer tables.Unlock()
	t := tables.m[k]
	if t == nil {
		t = buildTable(k, maxPathIDs)
		tables.m[k] = t
	}
	return t
}

// buildTable enumerates the routes of network k, keeping at most maxIDs of
// their channel ids.
func buildTable(k tableKey, maxIDs int) *routeTable {
	if k.fam == famMesh {
		m := topology.Mesh{W: k.w, H: k.h, Torus: k.torus}
		n := m.N()
		// Channel id: direction(4) * n + from-node.
		return newRouteTable(n, 4*n, func(dst []uint16, s, d int) []uint16 {
			for cur := s; cur != d; {
				dir, next := m.Step(cur, d)
				dst = append(dst, uint16(int(dir)*n+cur))
				cur = next
			}
			return dst
		}, endpoints{injChannels: 1, sharedEject: true}, maxIDs)
	}
	n := k.w
	route, ep := topology.QuarcRouteChannels, endpoints{injChannels: 4, sharedEject: false}
	if k.fam == famSpidergon {
		route, ep = topology.SpidergonRouteChannels, endpoints{injChannels: 1, sharedEject: true}
	}
	// Channel id: kind(5) * n + from-node.
	return newRouteTable(n, 5*n, func(dst []uint16, s, d int) []uint16 {
		for _, c := range route(n, s, d) {
			dst = append(dst, uint16(int(c.Kind)*n+c.From))
		}
		return dst
	}, ep, maxIDs)
}

// keyFor names a network — w nodes of a ring family, a w x h mesh or torus —
// with the reason the size is invalid for the family, if it is.
func keyFor(fam family, w, h int, torus bool) (tableKey, error) {
	err := topology.ValidateRingSize(w)
	if fam == famMesh {
		_, err = topology.NewMesh(w, h, torus)
	}
	return tableKey{fam, w, h, torus}, err
}

// mustTable is tableFor for the entry points that promise a panic on a bad
// size.
func mustTable(k tableKey, err error) *routeTable {
	if err != nil {
		panic(fmt.Sprintf("analytic: %v", err))
	}
	return tableFor(k)
}

// QuarcUniform predicts uniform-traffic unicast behaviour of an n-node
// Quarc.
func QuarcUniform(n, msgLen int, lambda float64) Prediction {
	return mustTable(keyFor(famQuarc, n, 0, false)).predict(msgLen, lambda)
}

// SpidergonUniform predicts uniform-traffic unicast behaviour of an n-node
// Spidergon.
func SpidergonUniform(n, msgLen int, lambda float64) Prediction {
	return mustTable(keyFor(famSpidergon, n, 0, false)).predict(msgLen, lambda)
}

// MeshUniform predicts uniform-traffic unicast behaviour of a w x h mesh
// (or torus) under XY routing.
func MeshUniform(w, h, msgLen int, lambda float64, torus bool) Prediction {
	return mustTable(keyFor(famMesh, w, h, torus)).predict(msgLen, lambda)
}

// modelKey names the network behind a registry model; ok is false for models
// with no analytical model and for sizes the model cannot describe.
func modelKey(model string, n int) (k tableKey, ok bool) {
	fam, w, h := famQuarc, n, 0
	switch model {
	case "quarc", "quarc-chainbcast", "quarc-1queue":
	case "spidergon":
		fam = famSpidergon
	case "mesh", "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		if n < 4 || side*side != n {
			return k, false
		}
		fam, w, h = famMesh, side, side
	default:
		return k, false
	}
	k, err := keyFor(fam, w, h, model == "torus")
	return k, err == nil
}

// ForModel dispatches to the closed-form uniform-unicast model of a
// registry model by name, validating the size instead of panicking: ok is
// false for models with no analytical model (ring, and anything registered
// later) and for sizes the model cannot describe. The Quarc ablation
// presets map onto the Quarc model — they share its topology and routing,
// so the channel-level analysis is identical; only the endpoint queueing
// differs, a second-order effect at the low loads where the model is valid.
// Mesh and torus sizes must be squares (the registry's builds are square).
func ForModel(model string, n, msgLen int, lambda float64) (Prediction, bool) {
	k, ok := modelKey(model, n)
	if !ok || msgLen < 2 || lambda < 0 {
		return Prediction{}, false
	}
	return tableFor(k).predict(msgLen, lambda), true
}

// SaturationRate is ForModel(model, n, msgLen, 0).SaturationRate without the
// prediction: it reads the memoised busiest-channel count, so a warm call is
// O(1) and even a cold one never replays routes for a latency. The admission
// classifier and the load ladders need only this number.
func SaturationRate(model string, n, msgLen int) (float64, bool) {
	k, ok := modelKey(model, n)
	if !ok || msgLen < 2 {
		return 0, false
	}
	return tableFor(k).saturationRate(msgLen), true
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
