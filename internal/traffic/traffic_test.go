package traffic

import (
	"math"
	"strings"
	"testing"

	"quarc/internal/sim"
)

// recorder counts messages instead of injecting them into a fabric.
type recorder struct {
	unicasts   []int
	broadcasts int
	multicasts [][]int
	times      []int64
}

func (r *recorder) SendUnicast(dst, msgLen int, now int64) uint64 {
	r.unicasts = append(r.unicasts, dst)
	r.times = append(r.times, now)
	return 0
}

func (r *recorder) SendBroadcast(msgLen int, now int64) uint64 {
	r.broadcasts++
	r.times = append(r.times, now)
	return 0
}

func (r *recorder) SendMulticast(targets []int, msgLen int, now int64) uint64 {
	r.multicasts = append(r.multicasts, append([]int(nil), targets...))
	r.times = append(r.times, now)
	return 0
}

func run(t *testing.T, cfg Config, cycles int64) ([]*recorder, []*Source) {
	t.Helper()
	var k sim.Kernel
	recs := make([]*recorder, cfg.N)
	senders := make([]Sender, cfg.N)
	for i := range recs {
		recs[i] = &recorder{}
		senders[i] = recs[i]
	}
	sources, err := Install(&k, cfg, senders)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(cycles)
	return recs, sources
}

func totalSent(sources []*Source) int64 {
	var total int64
	for _, s := range sources {
		total += s.Sent()
	}
	return total
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{N: 1, Rate: 0.1, MsgLen: 4},
		{N: 8, Rate: -0.1, MsgLen: 4},
		{N: 8, Rate: 1.5, MsgLen: 4},
		{N: 8, Rate: 0.1, Beta: 2, MsgLen: 4},
		{N: 8, Rate: 0.1, MsgLen: 1},
		{N: 8, Rate: 0.1, MsgLen: 4, HotspotBias: -1},
		// Each range test refuses NaN, and a pattern must be one of
		// Uniform..BitReverse.
		{N: 8, Rate: math.NaN(), MsgLen: 4},
		{N: 8, Rate: 0.1, Beta: math.NaN(), MsgLen: 4},
		{N: 8, Rate: 0.1, MsgLen: 4, HotspotBias: math.NaN()},
		{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: math.NaN(), McastSize: 2},
		{N: 8, Rate: 0.1, MsgLen: 4, Pattern: Pattern(7)},
		{N: 8, Rate: 0.1, MsgLen: 4, Pattern: Pattern(-1)},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	good := Config{N: 8, Rate: 0.1, Beta: 0.05, MsgLen: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestArrivalRate(t *testing.T) {
	const cycles = 200000
	cfg := Config{N: 4, Rate: 0.05, MsgLen: 4, Seed: 1}
	_, sources := run(t, cfg, cycles)
	for _, s := range sources {
		got := float64(s.Sent()) / cycles
		if math.Abs(got-cfg.Rate) > 0.005 {
			t.Errorf("node rate = %v, want about %v", got, cfg.Rate)
		}
	}
}

func TestBroadcastFraction(t *testing.T) {
	cfg := Config{N: 4, Rate: 0.2, Beta: 0.1, MsgLen: 4, Seed: 2}
	recs, sources := run(t, cfg, 100000)
	total := totalSent(sources)
	var bcasts int
	for _, r := range recs {
		bcasts += r.broadcasts
	}
	frac := float64(bcasts) / float64(total)
	if math.Abs(frac-cfg.Beta) > 0.01 {
		t.Errorf("broadcast fraction = %v, want about %v", frac, cfg.Beta)
	}
}

func TestUniformDestinations(t *testing.T) {
	cfg := Config{N: 8, Rate: 0.2, MsgLen: 4, Seed: 3}
	recs, _ := run(t, cfg, 50000)
	counts := make([]int, cfg.N)
	total := 0
	for node, r := range recs {
		for _, d := range r.unicasts {
			if d == node {
				t.Fatal("self-addressed message")
			}
			counts[d]++
			total++
		}
	}
	want := float64(total) / float64(cfg.N)
	for d, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("destination %d count %d deviates from uniform %f", d, c, want)
		}
	}
}

func TestAntipodalPattern(t *testing.T) {
	cfg := Config{N: 8, Rate: 0.2, MsgLen: 4, Pattern: Antipodal, Seed: 4}
	recs, _ := run(t, cfg, 2000)
	for node, r := range recs {
		for _, d := range r.unicasts {
			if d != (node+4)%8 {
				t.Fatalf("node %d sent to %d, want antipode", node, d)
			}
		}
	}
}

func TestNearestNeighborPattern(t *testing.T) {
	cfg := Config{N: 8, Rate: 0.2, MsgLen: 4, Pattern: NearestNeighbor, Seed: 5}
	recs, _ := run(t, cfg, 2000)
	for node, r := range recs {
		for _, d := range r.unicasts {
			if d != (node+1)%8 {
				t.Fatalf("node %d sent to %d, want neighbour", node, d)
			}
		}
	}
}

func TestHotspotPattern(t *testing.T) {
	cfg := Config{N: 8, Rate: 0.2, MsgLen: 4, Pattern: Hotspot, HotspotBias: 0.5, Seed: 6}
	recs, _ := run(t, cfg, 50000)
	hot, total := 0, 0
	for node, r := range recs {
		if node == 0 {
			continue
		}
		for _, d := range r.unicasts {
			if d == 0 {
				hot++
			}
			total++
		}
	}
	frac := float64(hot) / float64(total)
	// bias + residual uniform probability of hitting the hotspot
	want := 0.5 + 0.5/7.0
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("hotspot fraction = %v, want about %v", frac, want)
	}
}

func TestBitReversePattern(t *testing.T) {
	if bitReverse(1, 8) != 4 || bitReverse(3, 8) != 6 || bitReverse(0, 8) != 0 {
		t.Fatal("bitReverse wrong")
	}
	cfg := Config{N: 8, Rate: 0.2, MsgLen: 4, Pattern: BitReverse, Seed: 7}
	recs, _ := run(t, cfg, 2000)
	for node, r := range recs {
		want := bitReverse(node, 8)
		for _, d := range r.unicasts {
			if want != node && d != want {
				t.Fatalf("node %d sent to %d, want %d", node, d, want)
			}
			if d == node {
				t.Fatal("self-addressed message")
			}
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	bad := []Config{
		{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: -0.1},
		{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: 1.5, McastSize: 3},
		{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: 0.2},               // frac without size
		{N: 8, Rate: 0.1, MsgLen: 4, McastSize: 3},                 // size without frac
		{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: 0.2, McastSize: 1}, // a unicast
		{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: 0.2, McastSize: 8}, // broader than broadcast
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: bad multicast config validated", i)
		}
	}
	good := Config{N: 8, Rate: 0.1, MsgLen: 4, McastFrac: 0.2, McastSize: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("good multicast config rejected: %v", err)
	}
}

func TestMulticastFractionAndTargets(t *testing.T) {
	cfg := Config{N: 8, Rate: 0.2, Beta: 0.1, MsgLen: 4,
		McastFrac: 0.25, McastSize: 3, Seed: 11}
	recs, sources := run(t, cfg, 100000)
	total := totalSent(sources)
	var mcasts int
	for node, r := range recs {
		mcasts += len(r.multicasts)
		for _, targets := range r.multicasts {
			if len(targets) != cfg.McastSize {
				t.Fatalf("node %d multicast has %d targets, want %d", node, len(targets), cfg.McastSize)
			}
			seen := map[int]bool{}
			for _, d := range targets {
				if d == node {
					t.Fatalf("node %d multicast targets itself", node)
				}
				if seen[d] {
					t.Fatalf("node %d multicast repeats target %d", node, d)
				}
				seen[d] = true
			}
		}
	}
	// McastFrac applies to the non-broadcast share of the traffic.
	want := (1 - cfg.Beta) * cfg.McastFrac
	frac := float64(mcasts) / float64(total)
	if math.Abs(frac-want) > 0.01 {
		t.Errorf("multicast fraction = %v, want about %v", frac, want)
	}
}

func TestUntilStopsGeneration(t *testing.T) {
	cfg := Config{N: 2, Rate: 0.5, MsgLen: 4, Seed: 8, Until: 100}
	recs, _ := run(t, cfg, 10000)
	for _, r := range recs {
		for _, at := range r.times {
			if at >= 100 {
				t.Fatalf("message generated at %d, after Until", at)
			}
		}
	}
}

func TestZeroRateGeneratesNothing(t *testing.T) {
	cfg := Config{N: 2, Rate: 0, MsgLen: 4, Seed: 9}
	_, sources := run(t, cfg, 1000)
	if totalSent(sources) != 0 {
		t.Fatal("zero rate generated messages")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{N: 4, Rate: 0.1, Beta: 0.2, MsgLen: 4, Seed: 10}
	a, _ := run(t, cfg, 5000)
	b, _ := run(t, cfg, 5000)
	for i := range a {
		if len(a[i].unicasts) != len(b[i].unicasts) || a[i].broadcasts != b[i].broadcasts {
			t.Fatal("traffic not deterministic")
		}
		for j := range a[i].unicasts {
			if a[i].unicasts[j] != b[i].unicasts[j] {
				t.Fatal("destination sequence differs")
			}
		}
	}
}

func TestInstallSenderCountMismatch(t *testing.T) {
	var k sim.Kernel
	cfg := Config{N: 4, Rate: 0.1, MsgLen: 4}
	if _, err := Install(&k, cfg, make([]Sender, 2)); err == nil {
		t.Fatal("mismatched sender count accepted")
	}
}

// The wire names are each pattern's String, parsed in any case; "" is
// uniform and any other name is refused.
func TestPatternStrings(t *testing.T) {
	names := []string{"uniform", "hotspot", "antipodal", "neighbor", "bitreverse"}
	for p := Uniform; p <= BitReverse; p++ {
		if p.String() != names[p] {
			t.Fatalf("pattern %d is named %q, want %q", int(p), p.String(), names[p])
		}
		for _, name := range []string{p.String(), strings.ToUpper(p.String())} {
			if got, err := ParsePattern(name); err != nil || got != p {
				t.Fatalf("ParsePattern(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	if got, err := ParsePattern(""); err != nil || got != Uniform {
		t.Fatalf("ParsePattern(\"\") = %v, %v; want uniform", got, err)
	}
	if _, err := ParsePattern("Bogus"); err == nil || err.Error() != `unknown pattern "Bogus"` {
		t.Fatalf("ParsePattern(\"Bogus\") error %v", err)
	}
	if s := Pattern(9).String(); s != "Pattern(9)" {
		t.Fatalf("Pattern(9) prints %q", s)
	}
}

// countingSender counts messages and allocates nothing.
type countingSender struct{ sent *int }

func (c countingSender) SendUnicast(int, int, int64) uint64     { *c.sent++; return 0 }
func (c countingSender) SendBroadcast(int, int64) uint64        { *c.sent++; return 0 }
func (c countingSender) SendMulticast([]int, int, int64) uint64 { *c.sent++; return 0 }

// TestArrivalsAllocateNothing: each source is one kernel ticker that skips to
// its next arrival, so once the calendar and the multicast scratch have grown
// to their working size, generating a message — unicast, broadcast or
// multicast — allocates nothing.
func TestArrivalsAllocateNothing(t *testing.T) {
	var k sim.Kernel
	cfg := Config{N: 16, Rate: 0.2, Beta: 0.1, McastFrac: 0.2, McastSize: 3, MsgLen: 4, Seed: 3}
	sent := 0
	senders := make([]Sender, cfg.N)
	for i := range senders {
		senders[i] = countingSender{&sent}
	}
	if _, err := Install(&k, cfg, senders); err != nil {
		t.Fatal(err)
	}
	k.Run(1_000)
	warm := sent
	allocs := testing.AllocsPerRun(20, func() { k.Run(k.Now() + 100) })
	if arrivals := sent - warm; arrivals < 20*100 {
		t.Fatalf("only %d arrivals in 21 runs of 100 cycles", arrivals)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 100 cycles of %d sources, want 0", allocs, cfg.N)
	}
}
