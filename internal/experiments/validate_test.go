package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"quarc/internal/router"
)

// The engine-side twin of service.TestOutOfDomainRequestsRejected: RunContext
// refuses each out-of-domain point with Config.Validate's message, before it
// builds a fabric — seen in the allocation count: assembling even the
// smallest Quarc takes hundreds of allocations, a refusal a handful.
func TestRunContextRefusesOutOfDomain(t *testing.T) {
	good := Config{N: 16, MsgLen: 16, Rate: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("in-domain configuration refused: %v", err)
	}
	mutate := map[string]func(*Config){
		"beta 2":         func(c *Config) { c.Beta = 2 },
		"beta -0.5":      func(c *Config) { c.Beta = -0.5 },
		"rate -1":        func(c *Config) { c.Rate = -1 },
		"rate 5":         func(c *Config) { c.Rate = 5 },
		"msglen 1":       func(c *Config) { c.MsgLen = 1 },
		"depth -3":       func(c *Config) { c.Depth = -3 },
		"depth 32768":    func(c *Config) { c.Depth = router.MaxDepth + 1 },
		"n 0":            func(c *Config) { c.N = 0 },
		"warmup -5":      func(c *Config) { c.Warmup = -5 },
		"step workers":   func(c *Config) { c.StepWorkers = -1 },
		"hotspot bias":   func(c *Config) { c.HotspotBias = 1.5 },
		"mcast size":     func(c *Config) { c.McastFrac, c.McastSize = 0.2, 16 },
		"burst one knob": func(c *Config) { c.BurstMeanOn = 40 },
		"burst on-rate":  func(c *Config) { c.BurstMeanOn, c.BurstMeanOff, c.Rate = 40, 120, 0.9 },
		"burst pattern":  func(c *Config) { c.BurstMeanOn, c.BurstMeanOff, c.Pattern = 40, 120, 1 },
		"quarc size":     func(c *Config) { c.N = 10 },
		"unknown model":  func(c *Config) { c.Model = "nosuch" },
	}
	for name, m := range mutate {
		cfg := good
		m(&cfg)
		want := cfg.Validate()
		if want == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
			continue
		}
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = RunContext(context.Background(), cfg) })
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: RunContext error %v, want Validate's %q", name, err, want)
		}
		if allocs > 20 {
			t.Errorf("%s: refusal cost %.0f allocations: it got as far as building", name, allocs)
		}
	}
}

// A panel is judged point by point — the legacy pair and the grid-less
// default included — before any rate grid is derived: the specs below used
// to panic inside the derivation.
func TestPanelSpecValidate(t *testing.T) {
	opts := tinyOpts()
	if err := sweepSpec().Validate(opts); err != nil {
		t.Fatalf("valid panel refused: %v", err)
	}
	if err := (PanelSpec{N: 16, MsgLen: 16}).Validate(opts); err != nil {
		t.Fatalf("valid default-grid panel refused: %v", err)
	}
	for name, spec := range map[string]PanelSpec{
		"legacy pair, bad size":       {N: 10, MsgLen: 16, Rates: []float64{0.01}},
		"legacy pair, bad size, grid": {N: 10, MsgLen: 16},
		"one-flit messages, grid":     {N: 16, MsgLen: 1},
		"mesh size, quarc grid":       {N: 9, MsgLen: 16, Models: []string{"mesh"}},
		"rate out of range":           {N: 16, MsgLen: 16, Rates: []float64{0.01, 5}},
		"beta out of range":           {N: 16, MsgLen: 16, Beta: 2, Rates: []float64{0.01}},
		"second model's size":         {N: 12, MsgLen: 16, Models: []string{"quarc", "mesh"}, Rates: []float64{0.01}},
	} {
		want := spec.Validate(opts)
		if want == nil {
			t.Errorf("%s: Validate accepted the panel", name)
			continue
		}
		if _, err := RunPanel(spec, opts); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: RunPanel error %v, want %q", name, err, want)
		}
		if _, err := runPanelSerial(spec, opts); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: one-worker RunPanel error %v, want %q", name, err, want)
		}
	}
}

func TestFan(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{-3, 0, 1, 2, 7, 64} {
		const n = 23
		slots := make([]int, n)
		var running, peak atomic.Int64
		err := Fan(ctx, n, workers, func(i int) error {
			if r := running.Add(1); r > peak.Load() {
				peak.Store(r)
			}
			defer running.Add(-1)
			slots[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range slots {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d", workers, i, v)
			}
		}
		if max := int64(workers); peak.Load() > n || (workers >= 1 && peak.Load() > max) {
			t.Fatalf("workers=%d: %d calls ran at once", workers, peak.Load())
		}
	}
	if err := Fan(ctx, 0, 4, func(int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Fatalf("n=0: %v", err)
	}

	// Every index is attempted; of several failures the lowest index reports.
	var calls atomic.Int64
	err := Fan(ctx, 10, 3, func(i int) error {
		calls.Add(1)
		if i == 7 || i == 4 || i == 9 {
			return fmt.Errorf("point %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "point 4" || calls.Load() != 10 {
		t.Fatalf("err=%v after %d calls, want \"point 4\" after 10", err, calls.Load())
	}

	// A cancelled context stops the draw and wins over fn's errors.
	cctx, cancel := context.WithCancel(ctx)
	var once sync.Once
	calls.Store(0)
	err = Fan(cctx, 1000, 2, func(i int) error {
		calls.Add(1)
		once.Do(cancel)
		return errors.New("fn failed")
	})
	if !errors.Is(err, context.Canceled) || calls.Load() > 2 {
		t.Fatalf("err=%v after %d calls, want context.Canceled after at most one call per worker", err, calls.Load())
	}
}
