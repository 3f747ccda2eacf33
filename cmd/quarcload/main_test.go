package main

import (
	"testing"
	"time"
)

// TestColdSeedsDifferAcrossGenerators: two bursts against one daemon must
// both be cold where they mean to be. Generators started apart draw disjoint
// cold seeds, while the hot pool is the same 1000+k for everyone.
func TestColdSeedsDifferAcrossGenerators(t *testing.T) {
	const n, hotSeeds, cached = 200, 4, 0.5
	start := time.Date(2026, 9, 29, 12, 0, 0, 0, time.UTC)
	draw := func(at time.Time) (hot, cold map[uint64]bool) {
		hot, cold = map[uint64]bool{}, map[uint64]bool{}
		base := coldSeedBase(at)
		for i := 0; i < n; i++ {
			if s := seedFor(i, cached, hotSeeds, base); s >= 1000 && s < 1000+hotSeeds {
				hot[s] = true
			} else {
				cold[s] = true
			}
		}
		return hot, cold
	}
	hot1, cold1 := draw(start)
	hot2, cold2 := draw(start.Add(time.Millisecond))
	if len(cold1) != n/2 || len(cold2) != n/2 {
		t.Fatalf("cold seeds not unique within a burst: %d and %d of %d", len(cold1), len(cold2), n/2)
	}
	for s := range cold2 {
		if cold1[s] {
			t.Fatalf("cold seed %d drawn by both generators: the second burst would be served from cache", s)
		}
	}
	if len(hot1) != hotSeeds || len(hot2) != hotSeeds {
		t.Fatalf("hot pools have %d and %d seeds, want %d", len(hot1), len(hot2), hotSeeds)
	}
	for k := uint64(0); k < hotSeeds; k++ {
		if !hot1[1000+k] || !hot2[1000+k] {
			t.Fatalf("hot seed %d missing: the hot pool must stay 1000+k for every generator", 1000+k)
		}
	}
}
