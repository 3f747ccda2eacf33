package traffic

import (
	"math"
	"testing"

	"quarc/internal/sim"
)

// The ON/OFF configs below give Rate as the long-run mean; the ON-state rate
// is Rate*(MeanOn+MeanOff)/MeanOn.

func TestBurstyValidate(t *testing.T) {
	bad := []Config{
		{N: 1, Rate: 0.25, MeanOn: 10, MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0, MeanOn: 10, MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0.6, MeanOn: 10, MeanOff: 10, MsgLen: 4}, // ON-state rate 1.2
		{N: 8, Rate: 0.25, MeanOn: 0.5, MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0.25, MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0.25, MeanOn: 10, MeanOff: 10, MsgLen: 1},
		{N: 8, Rate: 0.25, MeanOn: 10, MeanOff: 10, MsgLen: 4, Beta: 2},
		// NaN means, a NaN on-rate, and the NaN on-rates of an infinite
		// burst mean or an infinite gap at rate 0.
		{N: 8, Rate: 0.25, MeanOn: math.NaN(), MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0.25, MeanOn: 10, MeanOff: math.NaN(), MsgLen: 4},
		{N: 8, Rate: math.NaN(), MeanOn: 10, MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0.25, MeanOn: math.Inf(1), MeanOff: 10, MsgLen: 4},
		{N: 8, Rate: 0, MeanOn: 10, MeanOff: math.Inf(1), MsgLen: 4},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestBurstyMeanRate(t *testing.T) {
	cfg := Config{N: 4, Rate: 0.1, MeanOn: 20, MeanOff: 60, MsgLen: 4, Seed: 9}
	if on := cfg.onRate(); math.Abs(on-0.4) > 1e-12 {
		t.Fatalf("ON-state rate = %v, want 0.4", on)
	}
	const cycles = 200000
	_, sources := run(t, cfg, cycles)
	got := float64(totalSent(sources)) / float64(cfg.N) / cycles
	if math.Abs(got-cfg.Rate) > 0.015 {
		t.Errorf("empirical rate %v, want about %v", got, cfg.Rate)
	}
}

func TestBurstyIsActuallyBursty(t *testing.T) {
	// Compare the index of dispersion (variance/mean of per-window counts)
	// against a Bernoulli source at the same mean rate: the bursty source
	// must be clearly over-dispersed.
	const cycles = 100000
	const window = 50
	cfg := Config{N: 2, Rate: 0.1, MeanOn: 30, MeanOff: 120, MsgLen: 4, Seed: 3}
	recs, _ := run(t, cfg, cycles)
	disp := func(times []int64) float64 {
		counts := make([]float64, cycles/window+1)
		for _, at := range times {
			counts[at/window]++
		}
		mean, m2 := 0.0, 0.0
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			m2 += (c - mean) * (c - mean)
		}
		if mean == 0 {
			return 0
		}
		return m2 / float64(len(counts)) / mean
	}
	burstyDisp := disp(recs[0].times)

	uniCfg := Config{N: 2, Rate: cfg.Rate, MsgLen: 4, Seed: 3}
	var k sim.Kernel
	urec := []*recorder{{}, {}}
	_, err := Install(&k, uniCfg, []Sender{urec[0], urec[1]})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(cycles)
	uniDisp := disp(urec[0].times)

	if burstyDisp < 2*uniDisp {
		t.Errorf("bursty dispersion %.2f not clearly above Bernoulli %.2f", burstyDisp, uniDisp)
	}
}

func TestBurstyRespectsUntil(t *testing.T) {
	cfg := Config{N: 2, Rate: 0.25, MeanOn: 10, MeanOff: 10, MsgLen: 4, Seed: 1, Until: 200}
	recs, _ := run(t, cfg, 10000)
	for _, r := range recs {
		for _, at := range r.times {
			if at >= 200 {
				t.Fatalf("message at %d, after Until", at)
			}
		}
	}
}

func TestBurstyBroadcastMix(t *testing.T) {
	cfg := Config{N: 4, Rate: 0.25, MeanOn: 50, MeanOff: 50, Beta: 0.3, MsgLen: 4, Seed: 8}
	recs, sources := run(t, cfg, 50000)
	var bcasts, total int64
	for i, r := range recs {
		bcasts += int64(r.broadcasts)
		total += sources[i].Sent()
	}
	frac := float64(bcasts) / float64(total)
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("broadcast fraction %v, want about 0.3", frac)
	}
}

func TestBurstyDeterminism(t *testing.T) {
	cfg := Config{N: 4, Rate: 0.25, MeanOn: 20, MeanOff: 20, MsgLen: 4, Seed: 12}
	a, _ := run(t, cfg, 5000)
	b, _ := run(t, cfg, 5000)
	for i := range a {
		if len(a[i].times) != len(b[i].times) {
			t.Fatal("bursty traffic not deterministic")
		}
	}
}
