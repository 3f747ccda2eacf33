// The bit-identity oracle of the route-table refactor. refAnalyze and the
// three enumerators below are the package's previous implementation, moved
// here verbatim; explore payloads carry these predictions and the
// benchmark's golden digests pin them, so the memoised implementation must
// reproduce every field of every Prediction to the last bit — on a cold
// table, a warm one, one streamed above the route cap, and under a race for
// the first call.
package analytic

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"quarc/internal/topology"
)

// refPathFunc enumerates the channel ids used by the route s -> d.
type refPathFunc func(s, d int) []int

// refAnalyze is the generic channel-level model exactly as it stood before
// route tables: every call enumerates every route twice, one slice per pair.
func refAnalyze(n, msgLen int, lambda float64, numChannels int, paths refPathFunc, ep endpoints) Prediction {
	if msgLen < 2 {
		panic("analytic: message length must be at least 2")
	}
	count := make([]float64, numChannels) // pair traversals per channel
	totHops := 0
	pairs := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := paths(s, d)
			totHops += len(p)
			pairs++
			for _, ch := range p {
				count[ch]++
			}
		}
	}
	avgHops := float64(totHops) / float64(pairs)

	// Channel message rate: each node offers lambda msgs/cycle uniformly
	// over n-1 destinations.
	svc := float64(msgLen) // flit-cycles a message occupies a channel
	rho := make([]float64, numChannels)
	wait := make([]float64, numChannels)
	maxUtil, maxTraversal := 0.0, 0.0
	for ch := range count {
		rate := lambda * count[ch] / float64(n-1)
		rho[ch] = rate * svc
		if rho[ch] > maxUtil {
			maxUtil = rho[ch]
		}
		if count[ch] > maxTraversal {
			maxTraversal = count[ch]
		}
		if rho[ch] < 1 {
			// M/D/1 mean waiting time: rho * S / (2 (1 - rho)).
			wait[ch] = rho[ch] * svc / (2 * (1 - rho[ch]))
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
	endpointWait := md1(lambda / float64(ep.injChannels))
	if ep.sharedEject {
		endpointWait += md1(lambda)
	}

	// Mean latency over pairs: endpoint waiting + hops + M + per-channel
	// waiting along the path.
	var latSum float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := paths(s, d)
			l := endpointWait + float64(len(p)) + float64(msgLen)
			for _, ch := range p {
				l += wait[ch]
			}
			latSum += l
		}
	}

	sat := math.Inf(1)
	if maxTraversal > 0 {
		sat = float64(n-1) / (maxTraversal * svc)
	}
	return Prediction{
		N: n, MsgLen: msgLen, Lambda: lambda,
		AvgHops:         avgHops,
		ZeroLoadLatency: avgHops + float64(msgLen),
		MeanLatency:     latSum / float64(pairs),
		MaxChannelUtil:  maxUtil,
		SaturationRate:  sat,
	}
}

// refRingChannelID packs a ring-topology channel id: kind*N + from.
func refRingChannelID(n int, ch topology.Channel) int {
	return int(ch.Kind)*n + ch.From
}

// refForModel is ForModel as it stood: ok mirrors the old size validation
// (with the mesh bound the old code panicked on made explicit).
func refForModel(model string, n, msgLen int, lambda float64) (Prediction, bool) {
	if msgLen < 2 || lambda < 0 {
		return Prediction{}, false
	}
	switch model {
	case "quarc", "spidergon":
		if topology.ValidateRingSize(n) != nil {
			return Prediction{}, false
		}
		route, ep := topology.QuarcRouteChannels, endpoints{injChannels: 4, sharedEject: false}
		if model == "spidergon" {
			route, ep = topology.SpidergonRouteChannels, endpoints{injChannels: 1, sharedEject: true}
		}
		return refAnalyze(n, msgLen, lambda, 5*n, func(s, d int) []int {
			chs := route(n, s, d)
			ids := make([]int, len(chs))
			for i, c := range chs {
				ids[i] = refRingChannelID(n, c)
			}
			return ids
		}, ep), true
	case "mesh", "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		if n < 4 || side*side != n {
			return Prediction{}, false
		}
		m, err := topology.NewMesh(side, side, model == "torus")
		if err != nil {
			return Prediction{}, false
		}
		// Channel id: direction(4) * n + from-node.
		return refAnalyze(n, msgLen, lambda, 4*n, func(s, d int) []int {
			var ids []int
			cur := s
			for cur != d {
				dir, next := m.Step(cur, d)
				ids = append(ids, int(dir)*n+cur)
				cur = next
			}
			return ids
		}, endpoints{injChannels: 1, sharedEject: true}), true
	}
	return Prediction{}, false
}

// sameBits reports whether two predictions agree on every field to the bit.
func sameBits(a, b Prediction) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Float64:
			if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
				return false
			}
		default:
			if va.Field(i).Int() != vb.Field(i).Int() {
				return false
			}
		}
	}
	return true
}

var (
	oracleModels = []string{"quarc", "spidergon", "mesh", "torus"}
	oracleNs     = []int{8, 16, 36, 64, 144, 256, 400}
	oracleMs     = []int{2, 16, 64}
)

// oracleCase is one grid point with the reference's verdict on it.
type oracleCase struct {
	model  string
	n, m   int
	lambda float64
	want   Prediction
	ok     bool
}

// oracleGrid evaluates the reference once over models x sizes x message
// lengths x loads (it is the slow side: two enumerations and a slice per pair
// on every call). Loads run from idle through past saturation as fractions
// of each network's own saturation rate, so every covered (model, N, M) sees
// finite latencies, the last finite step and the +Inf cases beyond; sizes a
// family cannot describe stay in the grid and must come back ok=false.
var oracleGrid = sync.OnceValue(func() []oracleCase {
	var grid []oracleCase
	for _, model := range oracleModels {
		for _, n := range oracleNs {
			for _, m := range oracleMs {
				lambdas := []float64{0.01}
				if zero, ok := refForModel(model, n, m, 0); ok {
					sat := zero.SaturationRate
					lambdas = []float64{0, sat * 0.5, sat * 0.999, sat, sat * 1.001, sat * 1.5, 1}
				}
				for _, lambda := range lambdas {
					want, ok := refForModel(model, n, m, lambda)
					grid = append(grid, oracleCase{model, n, m, lambda, want, ok})
				}
			}
		}
	}
	return grid
})

// checkAgainstOracle holds predict, one way of computing ForModel, to the
// reference over the grid's cases with message length m (0: every case). It
// reports with Errorf so racing goroutines may call it.
func checkAgainstOracle(t *testing.T, what string, m int, predict func(model string, n, msgLen int, lambda float64) (Prediction, bool)) {
	for _, c := range oracleGrid() {
		if m != 0 && c.m != m {
			continue
		}
		got, ok := predict(c.model, c.n, c.m, c.lambda)
		if ok != c.ok || !sameBits(got, c.want) {
			t.Errorf("%s: %s n=%d m=%d lambda=%g:\n got %+v ok=%v\nwant %+v ok=%v",
				what, c.model, c.n, c.m, c.lambda, got, ok, c.want, c.ok)
			return
		}
	}
}

// forgetTables empties the memo, so the next ForModel of every network is a
// first call again.
func forgetTables() {
	tables.Lock()
	defer tables.Unlock()
	clear(tables.m)
}

func TestOracleGridStraddlesSaturation(t *testing.T) {
	covered, finite, inf := 0, 0, 0
	for _, c := range oracleGrid() {
		if !c.ok {
			continue
		}
		covered++
		if math.IsInf(c.want.MeanLatency, 1) {
			inf++
		} else {
			finite++
		}
	}
	// quarc/spidergon cover 8, 16, 36, 64; mesh/torus 16, 36, 64, 144, 256, 400.
	if want := (4 + 4 + 6 + 6) * len(oracleMs) * 7; covered != want {
		t.Fatalf("grid covers %d cases, want %d", covered, want)
	}
	if finite < covered/3 || inf < covered/3 {
		t.Fatalf("grid has %d finite and %d saturated cases of %d; it must exercise both", finite, inf, covered)
	}
}

// TestRouteTablesMatchReference is the oracle on the memoised path: the
// first pass builds every table (cold), the second reads them (warm). The
// 16x16 meshes are the largest whose routes are kept; the 20x20 ones stream
// from the enumerator on every call.
func TestRouteTablesMatchReference(t *testing.T) {
	forgetTables()
	checkAgainstOracle(t, "cold", 0, ForModel)
	checkAgainstOracle(t, "warm", 0, ForModel)
	for _, c := range []struct {
		n    int
		kept bool
	}{{256, true}, {400, false}} {
		for _, model := range []string{"mesh", "torus"} {
			k, _ := modelKey(model, c.n)
			if kept := tableFor(k).ids != nil; kept != c.kept {
				t.Errorf("%s n=%d: routes kept = %v, want %v", model, c.n, kept, c.kept)
			}
		}
	}
}

// TestStreamedRoutesMatchReference forces the above-cap path at every size:
// tables built under a zero route cap keep no routes, and the one replay loop
// must give the same bits from the enumerator as from the kept table.
func TestStreamedRoutesMatchReference(t *testing.T) {
	streamed := map[tableKey]*routeTable{}
	checkAgainstOracle(t, "streamed", 0, func(model string, n, msgLen int, lambda float64) (Prediction, bool) {
		k, ok := modelKey(model, n)
		if !ok || msgLen < 2 || lambda < 0 {
			return Prediction{}, false
		}
		tbl := streamed[k]
		if tbl == nil {
			tbl = buildTable(k, 0)
			streamed[k] = tbl
		}
		if tbl.ids != nil || tbl.hops != nil {
			t.Fatalf("%s n=%d: a zero cap kept routes", model, n)
		}
		return tbl.predict(msgLen, lambda), true
	})
}

// TestFirstCallRace has eight goroutines race every network's first call
// (one message length is enough: tables do not depend on it): each table must
// be built once, and every racer must read the finished one.
func TestFirstCallRace(t *testing.T) {
	forgetTables()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checkAgainstOracle(t, fmt.Sprintf("racer %d", g), 16, ForModel)
		}(g)
	}
	wg.Wait()
}

// TestSaturationRateMatchesForModel requires the O(1) entry point to return
// the very bits ForModel reports, cold and warm, and to refuse what ForModel
// refuses.
func TestSaturationRateMatchesForModel(t *testing.T) {
	forgetTables()
	for pass := 0; pass < 2; pass++ {
		for _, c := range oracleGrid() {
			got, ok := SaturationRate(c.model, c.n, c.m)
			if ok != c.ok || math.Float64bits(got) != math.Float64bits(c.want.SaturationRate) {
				t.Fatalf("SaturationRate(%s, %d, %d) = %v, %v; ForModel says %v, %v",
					c.model, c.n, c.m, got, ok, c.want.SaturationRate, c.ok)
			}
		}
	}
	for _, model := range []string{"ring", "nosuch"} {
		if _, ok := SaturationRate(model, 16, 16); ok {
			t.Errorf("SaturationRate(%s) claims a model ForModel does not have", model)
		}
	}
	if _, ok := SaturationRate("quarc", 16, 1); ok {
		t.Error("SaturationRate accepted a one-flit message")
	}
}

// TestForModelRefusesOversizedMeshes: a square above the simulator's 1024-node
// bound is a size the model cannot describe — ok=false, as ForModel's
// contract says, not the constructor's panic.
func TestForModelRefusesOversizedMeshes(t *testing.T) {
	for _, model := range []string{"mesh", "torus"} {
		for _, n := range []int{1089, 2025, 4096} {
			if _, ok := ForModel(model, n, 16, 0.001); ok {
				t.Errorf("ForModel(%s, %d) ok", model, n)
			}
			if _, ok := SaturationRate(model, n, 16); ok {
				t.Errorf("SaturationRate(%s, %d) ok", model, n)
			}
		}
		if _, ok := SaturationRate(model, 1024, 16); !ok {
			t.Errorf("SaturationRate(%s, 1024) refused the largest buildable size", model)
		}
	}
}
