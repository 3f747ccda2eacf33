package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"quarc/internal/analytic"
	"quarc/internal/buffer"
	"quarc/internal/cost"
	"quarc/internal/experiments"
	"quarc/internal/flit"
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/rng"
	"quarc/internal/sim"
)

// The ladder times every layer below the serving path in isolation, from
// outside, by calling its public functions on fixed probe inputs. It runs in
// every traced run whatever the workload, so a change to one layer shows in
// that layer's row wherever it is looked for. Every value is the median of
// at least three equal batches.

// sink defeats dead-code elimination of probe results.
var sink uint64

// perOp runs fn in batches of reps and returns the median batch mean, in ns.
func perOp(batches, reps int, fn func()) float64 {
	v := make([]float64, batches)
	for b := range v {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		v[b] = float64(time.Since(t0)) / float64(reps)
	}
	return median(v)
}

// mallocs counts heap allocations made while fn runs (the whole process's,
// so callers keep other goroutines quiet).
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// primitives: rng, flit, buffer, sim — the leaves every simulated cycle
// bottoms out in.
func (m layerMetrics) primitives(e *env, _ *report) error {
	const inner = 1000
	s := rng.New(rng.Derive(e.seed, tagProbe), 1)
	m.set("rng.draw_ns", perOp(5, 200, func() {
		for i := 0; i < inner; i++ {
			sink += s.Uint64()
		}
	})/inner, "ns")

	head := flit.Flit{Traffic: flit.Unicast, Src: 3, Dst: 41, PktID: 7, MsgID: 7}
	buf := make([]flit.Flit, 0, 16)
	m.set("flit.append_packet_ns", perOp(5, 200, func() {
		for i := 0; i < inner; i++ {
			buf = flit.AppendPacket(buf[:0], head, 16)
		}
		sink += uint64(len(buf))
	})/inner, "ns")

	pkt := flit.Packet(head, 16)
	m.set("flit.wire_roundtrip_ns", perOp(5, 100, func() {
		for i := 0; i < inner; i++ {
			w, _ := flit.EncodeWire(pkt[i%16])
			f, _ := flit.DecodeWire(w)
			sink += uint64(f.Payload)
		}
	})/inner, "ns")

	q := buffer.New(4)
	m.set("buffer.push_pop_ns", perOp(5, 200, func() {
		for i := 0; i < inner; i++ {
			q.Push(pkt[i%16])
			f, _ := q.Pop()
			sink += uint64(f.Seq)
		}
	})/inner, "ns")

	var k sim.Kernel
	tick := func(sim.Time) { sink++ }
	m.set("sim.event_ns", perOp(5, 50, func() {
		for i := 0; i < inner; i++ {
			k.After(sim.Time(1+i%7), sim.PriStats, tick)
		}
		k.Run(k.Now() + 8)
	})/inner, "ns")

	m.set("analytic.formodel_ns", perOp(5, 10, func() { // milliseconds per call, not nanoseconds
		p, _ := analytic.ForModel("quarc", 64, 16, 0.004)
		sink += uint64(p.MeanLatency)
	}), "ns")
	m.set("cost.network_slices_ns", perOp(5, 20000, func() {
		n, _ := cost.NetworkSlices("spidergon", 64, 32)
		sink += uint64(n)
	}), "ns")
	return nil
}

func build(name string, n int) (*network.Fabric, []model.Node, error) {
	mod, ok := model.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("model %q not registered", name)
	}
	return mod.Build(model.BuildConfig{N: n, Depth: 4})
}

// fabrics: model construction, one fabric cycle (serial and pooled) and the
// one-big-point speed in hardware-neutral router-steps per second.
func (m layerMetrics) fabrics(e *env, _ *report) error {
	for _, b := range []struct {
		key, name string
		n, reps   int
	}{{"quarc8", "quarc", 8, 300}, {"quarc64", "quarc", 64, 60}, {"mesh1024", "mesh", 1024, 4}} {
		b := b
		var err error
		ns := perOp(3, b.reps, func() {
			var fab *network.Fabric
			if fab, _, err = build(b.name, b.n); err == nil {
				fab.Close()
			}
		})
		if err != nil {
			return err
		}
		m.set("model.build_us."+b.key, ns/1e3, "us")
	}
	m.set("model.build_allocs.quarc64", mallocs(func() {
		fab, _, _ := build("quarc", 64)
		fab.Close()
	}), "count")

	// One mid-load cycle of the largest paper network.
	fab, nodes, err := build("quarc", 64)
	if err != nil {
		return err
	}
	refill := func(stride int) {
		for i, nd := range nodes {
			nd.SendUnicast((i+stride)%len(nodes), 16, fab.Now())
			if i%8 == 0 {
				nd.SendBroadcast(16, fab.Now())
			}
		}
	}
	refill(7)
	step := func() {
		fab.Step()
		if fab.Tracker.InFlight() == 0 {
			refill(9)
		}
	}
	for i := 0; i < 2000; i++ {
		step() // free lists and scratch reach their steady-state capacity
	}
	m.set("network.step_us.quarc64", perOp(5, 4000, step)/1e3, "us")
	refill(11)
	allocs := mallocs(func() {
		for i := 0; i < 100; i++ {
			fab.Step()
		}
	})
	for try := 0; try < 2 && allocs > 0; try++ { // a stray runtime allocation is not the step loop's
		refill(13)
		allocs = min(allocs, mallocs(func() {
			for i := 0; i < 100; i++ {
				fab.Step()
			}
		}))
	}
	m.set("network.step_allocs", allocs/100, "count")

	// One saturated cycle of a 32x32 mesh, pool off and at the default size.
	for _, v := range []struct {
		key     string
		workers int
	}{{"mesh1024_serial", 1}, {"mesh1024_pooled", network.DefaultStepWorkers(1024)}} {
		big, bn, err := build("mesh", 1024)
		if err != nil {
			return err
		}
		big.SetStepWorkers(v.workers)
		load := func() {
			for i, nd := range bn {
				nd.SendUnicast((i+31)%1024, 16, big.Now())
				nd.SendUnicast((i+997)%1024, 16, big.Now())
			}
		}
		load()
		for i := 0; i < 50; i++ {
			big.Step()
		}
		m.set("network.step_us."+v.key, perOp(3, 150, func() {
			big.Step()
			if big.Tracker.InFlight() == 0 {
				load()
			}
		})/1e3, "us")
		big.Close()
	}

	// The same regime end to end as a short design point: serial over
	// pooled point time, and router-steps per second at the default.
	point := experiments.Config{Model: "mesh", N: 1024, MsgLen: 16, Rate: 0.02,
		Warmup: 20, Measure: 100, Drain: 200, Seed: nonzero(rng.Derive(e.seed, tagProbe, 1))}
	var wall [2][]float64
	var cycles int64
	for rep := 0; rep < 3; rep++ {
		for i, sw := range []int{1, 0} {
			c := point
			c.StepWorkers = sw
			t0 := time.Now()
			res, err := experiments.RunContext(context.Background(), c)
			if err != nil {
				return err
			}
			wall[i] = append(wall[i], time.Since(t0).Seconds())
			cycles = res.Cycles
		}
	}
	serial, pooled := median(wall[0]), median(wall[1])
	m.set("network.pool_speedup", serial/pooled, "ratio")
	m.set("router.steps_per_s", float64(cycles)*1024/pooled, "1/s")
	return nil
}
