// Cache-coherence scenario: the workload that motivates the Quarc.
//
// The paper (§1, §2.2) argues that broadcast is "the key mechanism for
// keeping caches in sync" in MPSoCs and that cache synchronisation becomes
// the bottleneck as core counts grow. This example runs an actual
// write-invalidate MSI protocol (internal/coherence) over the simulated
// fabrics: cores read and write a shared working set; writes broadcast
// invalidations and only complete when the last core has seen them; read
// misses fetch lines from address-interleaved home nodes; dirty lines write
// back on downgrade.
//
// The identical protocol and access trace run over a Quarc and over a
// Spidergon. The printed comparison is the paper's §2.2 argument made
// concrete: write visibility (invalidation broadcast completion) is several
// times faster on the Quarc and barely degrades as the write rate grows,
// while the Spidergon's broadcast-by-unicast chains consume its single
// injection channel and drag read misses down with them.
//
// Run with:
//
//	go run ./examples/cachecoherence
package main

import (
	"fmt"
	"log"

	"quarc"
	"quarc/internal/coherence"
	"quarc/internal/plot"
)

const (
	cores    = 16
	lines    = 64 // shared working set (cache lines)
	fetchLen = 8  // flits per data message (a 32-byte line on 34-bit flits)
	ctrlLen  = 2  // flits per control message
	cycles   = 8000
)

type outcome struct {
	issueProb float64
	writeVis  float64 // mean cycles until a write is globally visible
	readMiss  float64 // mean read miss service time
	stats     coherence.Stats
}

func runProtocol(topology string, writeFrac, issueProb float64) (outcome, error) {
	fab, nodes, err := quarc.Build(topology, cores, 4)
	if err != nil {
		return outcome{}, err
	}
	sys, err := coherence.NewSystem(coherence.Config{
		Cores: cores, Lines: lines, FetchLen: fetchLen, CtrlLen: ctrlLen,
		Seed: 42, WriteFrac: writeFrac,
	}, fab, nodes)
	if err != nil {
		return outcome{}, err
	}
	stats, err := coherence.RunWorkload(sys, cycles, issueProb)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		issueProb: issueProb,
		writeVis:  stats.MeanWriteVisibility(),
		readMiss:  stats.MeanReadMissLatency(),
		stats:     stats,
	}, nil
}

func main() {
	fmt.Printf("MSI write-invalidate coherence: %d cores, %d-line working set, "+
		"%d-flit lines, %d cycles\n\n", cores, lines, fetchLen, cycles)

	issueProbs := []float64{0.01, 0.02, 0.04, 0.08}
	const writeFrac = 0.15

	header := []string{"accesses/core/cycle", "quarc write-vis", "spider write-vis",
		"quarc read-miss", "spider read-miss", "speedup"}
	var rows [][]string
	var firstQ, firstS outcome
	for i, p := range issueProbs {
		q, err := runProtocol("quarc", writeFrac, p)
		if err != nil {
			log.Fatal(err)
		}
		s, err := runProtocol("spidergon", writeFrac, p)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			firstQ, firstS = q, s
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.1f", q.writeVis),
			fmt.Sprintf("%.1f", s.writeVis),
			fmt.Sprintf("%.1f", q.readMiss),
			fmt.Sprintf("%.1f", s.readMiss),
			fmt.Sprintf("%.1fx", s.writeVis/q.writeVis),
		})
	}
	fmt.Println(plot.Table(header, rows))

	st := firstQ.stats
	fmt.Printf("protocol activity at the lightest load (quarc): %d reads (%d misses), "+
		"%d writes (%d upgrades), %d invalidations, %d writebacks\n",
		st.Reads, st.ReadMisses, st.Writes, st.WriteUpgrades, st.Invalidations, st.WriteBacks)
	fmt.Printf("\na write becomes globally visible in %.0f cycles on the Quarc versus "+
		"%.0f on the Spidergon\n(same cores, same trace, same protocol): the paper's "+
		"cache-sync argument, end to end.\n", firstQ.writeVis, firstS.writeVis)
}
