package traffic

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"quarc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/arrivals.golden from this build")

const arrivalsPath = "testdata/arrivals.golden"

// arrivalsPerConfig is how many messages of each workload the golden pins.
const arrivalsPerConfig = 200

// logSender appends one line per message to a log shared by every node, so
// the log keeps the calendar's firing order across sources.
type logSender struct {
	node int
	log  *[]string
}

func (s logSender) SendUnicast(dst, _ int, now int64) uint64 {
	*s.log = append(*s.log, fmt.Sprintf("%d %d u %d", now, s.node, dst))
	return 0
}

func (s logSender) SendBroadcast(_ int, now int64) uint64 {
	*s.log = append(*s.log, fmt.Sprintf("%d %d b", now, s.node))
	return 0
}

func (s logSender) SendMulticast(targets []int, _ int, now int64) uint64 {
	ts := make([]string, len(targets))
	for i, d := range targets {
		ts[i] = fmt.Sprint(d)
	}
	*s.log = append(*s.log, fmt.Sprintf("%d %d m %s", now, s.node, strings.Join(ts, ",")))
	return 0
}

// arrivalWorkloads are the workloads the golden pins: every pattern at N 16,
// a broadcast share, a multicast mix, and the ON/OFF source with and without
// collectives.
var arrivalWorkloads = []struct {
	name string
	cfg  Config
}{
	{name: "uniform", cfg: Config{N: 16, Rate: 0.05, MsgLen: 4, Seed: 1}},
	{name: "hotspot", cfg: Config{N: 16, Rate: 0.05, MsgLen: 4, Pattern: Hotspot, HotspotBias: 0.3, Seed: 2}},
	{name: "antipodal", cfg: Config{N: 16, Rate: 0.05, MsgLen: 4, Pattern: Antipodal, Seed: 3}},
	{name: "neighbor", cfg: Config{N: 16, Rate: 0.05, MsgLen: 4, Pattern: NearestNeighbor, Seed: 4}},
	{name: "bitreverse", cfg: Config{N: 16, Rate: 0.05, MsgLen: 4, Pattern: BitReverse, Seed: 5}},
	{name: "beta", cfg: Config{N: 16, Rate: 0.05, Beta: 0.1, MsgLen: 4, Seed: 6}},
	{name: "multicast", cfg: Config{N: 16, Rate: 0.05, Beta: 0.1, McastFrac: 0.2, McastSize: 3, MsgLen: 4, Seed: 7}},
	{name: "bursty", cfg: Config{N: 16, Rate: 0.05, MsgLen: 4, MeanOn: 40, MeanOff: 120, Seed: 8}},
	{name: "bursty-collectives", cfg: Config{N: 16, Rate: 0.05, Beta: 0.1, McastFrac: 0.2, McastSize: 3, MsgLen: 4, MeanOn: 30, MeanOff: 90, Seed: 9}},
}

// arrivals returns the first arrivalsPerConfig messages a workload generates.
func arrivals(t *testing.T, cfg Config) []string {
	t.Helper()
	var k sim.Kernel
	var log []string
	senders := make([]Sender, cfg.N)
	for i := range senders {
		senders[i] = logSender{i, &log}
	}
	if _, err := Install(&k, cfg, senders); err != nil {
		t.Fatal(err)
	}
	for len(log) < arrivalsPerConfig {
		k.Run(k.Now() + 100)
	}
	return log[:arrivalsPerConfig]
}

// TestArrivalsMatchGolden pins every arrival of each workload — its cycle,
// node, class and destination or target set, in calendar order — against
// testdata/arrivals.golden. Refresh deliberately with -update.
func TestArrivalsMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range arrivalWorkloads {
		fmt.Fprintf(&b, "# %s\n", w.name)
		for _, line := range arrivals(t, w.cfg) {
			b.WriteString(line + "\n")
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(arrivalsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(arrivalsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d: got %q, want %q", arrivalsPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", arrivalsPath, len(g), len(w))
}
