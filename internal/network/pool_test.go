package network

import (
	"runtime"
	"testing"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// bareFabric assembles n one-input switches around wires (all-sink when nil):
// enough fabric to size pools and check wiring, with no adapters.
func bareFabric(n int, wires [][]OutputWire) *Fabric {
	routers := router.NewSet(n, router.Config{VCs: 2, Depth: 2,
		InLanes: []int{2}, NOut: 1, EjectPort: 0,
		Route:  func(int, int, flit.Flit) router.Decision { return router.Decision{Out: 0, Eject: true} },
		VCNext: func(int, int, int, int, flit.Flit) int { return 0 }})
	return newFabric(routers, 0, func(node int) []OutputWire {
		if wires == nil || wires[node] == nil {
			return []OutputWire{{Sink: true}}
		}
		return wires[node]
	})
}

// TestStepWorkersClamp pins the pool-sizing rule: shards are whole 64-node
// activeMask words, so a worker count is capped at one worker per full word
// and fabrics under 128 nodes step serially — for the automatic size at any
// GOMAXPROCS and for explicit counts alike.
func TestStepWorkersClamp(t *testing.T) {
	want := map[int][4]int{ // n -> workers at GOMAXPROCS (or an explicit count of) 1, 2, 4, 64
		16:   {1, 1, 1, 1},
		64:   {1, 1, 1, 1},
		127:  {1, 1, 1, 1},
		128:  {1, 2, 2, 2},
		1000: {1, 2, 4, 15},
		1024: {1, 2, 4, 16},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{1, 2, 4, 64} {
		runtime.GOMAXPROCS(procs)
		for n, row := range want {
			if got := DefaultStepWorkers(n); got != row[i] {
				t.Errorf("n=%d GOMAXPROCS=%d: %d default workers, want %d", n, procs, got, row[i])
			}
			if got := clampStepWorkers(procs, n); got != row[i] {
				t.Errorf("n=%d: %d explicit workers clamped to %d, want %d", n, procs, got, row[i])
			}
		}
	}
	if got := clampStepWorkers(0, 1024); got != 1 {
		t.Errorf("zero workers clamped to %d, want 1", got)
	}

	// SetStepWorkers applies the same clamp instead of spawning helpers that
	// would own no mask word.
	small := bareFabric(64, nil)
	small.SetStepWorkers(4)
	if small.pool != nil {
		t.Errorf("64-node fabric got a %d-worker pool, want serial stepping", small.pool.workers)
	}
	big := bareFabric(200, nil)
	defer big.Close()
	big.SetStepWorkers(8)
	if big.pool == nil || big.pool.workers != 3 {
		t.Fatalf("200-node fabric asked for 8 workers: pool %+v, want 3 workers", big.pool)
	}
	// Three full words plus an 8-node tail over three workers: every shard
	// starts on a word boundary and the last takes the partial word.
	for w, r := range [][2]int{{0, 64}, {64, 128}, {128, 200}} {
		if sc := &big.pool.scratch[w]; sc.lo != r[0] || sc.hi != r[1] {
			t.Errorf("worker %d owns [%d,%d), want [%d,%d)", w, sc.lo, sc.hi, r[0], r[1])
		}
	}
}

// TestNewRejectsSharedInputPort: credits return to a port's one feeder, so
// two outputs wired to the same input port are a wiring bug, not a topology.
func TestNewRejectsSharedInputPort(t *testing.T) {
	wires := make([][]OutputWire, 3)
	wires[0] = []OutputWire{{Dst: PortRef{Node: 2, Port: 0}}}
	wires[1] = []OutputWire{{Dst: PortRef{Node: 2, Port: 0}}}
	defer func() {
		if recover() == nil {
			t.Fatal("two outputs feeding one input port were accepted")
		}
	}()
	bareFabric(3, wires)
}
