package coherence

import (
	"testing"

	"quarc/internal/model"
	_ "quarc/internal/models"
	"quarc/internal/network"
)

// newNoC builds the named registered model with n nodes and wraps it.
func newNoC(t testing.TB, name string, n int) (*FabricNoC, *network.Fabric) {
	t.Helper()
	fab, nodes, err := model.Build(name, model.BuildConfig{N: n, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	noc, err := NewFabricNoC(fab, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return noc, fab
}

func quarcNoC(t testing.TB, n int) (*FabricNoC, *network.Fabric) { return newNoC(t, "quarc", n) }

func newSys(t testing.TB, noc *FabricNoC, cores int) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Cores: cores, Lines: 32, FetchLen: 8, CtrlLen: 2, Seed: 5, WriteFrac: 0.2,
	}, noc)
	if err != nil {
		t.Fatal(err)
	}
	noc.Bind(sys)
	return sys
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cores: 1, Lines: 4, FetchLen: 4, CtrlLen: 2},
		{Cores: 4, Lines: 0, FetchLen: 4, CtrlLen: 2},
		{Cores: 4, Lines: 4, FetchLen: 1, CtrlLen: 2},
		{Cores: 4, Lines: 4, FetchLen: 4, CtrlLen: 2, WriteFrac: 1.5},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestReadMissFetchesLine(t *testing.T) {
	noc, _ := quarcNoC(t, 8)
	sys := newSys(t, noc, 8)
	// Core 0 reads line 1 (home = node 1): miss -> fetch -> Shared.
	ok, err := sys.Issue(Op{Core: 0, Addr: 1, Write: false}, noc.Now())
	if err != nil || !ok {
		t.Fatalf("issue failed: %v %v", ok, err)
	}
	if !sys.Blocked(0) {
		t.Fatal("core not blocked on miss")
	}
	for i := 0; i < 10000 && noc.InFlight() > 0; i++ {
		noc.Step()
	}
	if sys.Blocked(0) {
		t.Fatal("core still blocked after drain")
	}
	if sys.State(0, 1) != Shared {
		t.Fatalf("line state %v, want S", sys.State(0, 1))
	}
	st := sys.Stats()
	if st.ReadMisses != 1 || st.MeanReadMissLatency() <= 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLocalHomeReadNeedsNoNetwork(t *testing.T) {
	noc, fab := quarcNoC(t, 8)
	sys := newSys(t, noc, 8)
	// Core 1 reads line 1 (home = node 1): local, immediate.
	ok, err := sys.Issue(Op{Core: 1, Addr: 1}, noc.Now())
	if err != nil || !ok {
		t.Fatal("local read failed")
	}
	if sys.Blocked(1) {
		t.Fatal("local read blocked the core")
	}
	if fab.FlitsForwarded() != 0 {
		t.Fatal("local read generated network traffic")
	}
	if sys.State(1, 1) != Shared {
		t.Fatal("line not cached")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	noc, _ := quarcNoC(t, 8)
	sys := newSys(t, noc, 8)
	// Three cores read line 2 into S.
	for _, core := range []int{0, 1, 3} {
		sys.Issue(Op{Core: core, Addr: 2}, noc.Now())
		for i := 0; i < 10000 && noc.InFlight() > 0; i++ {
			noc.Step()
		}
	}
	// Core 5 writes line 2: everyone else must end Invalid, writer M.
	sys.Issue(Op{Core: 5, Addr: 2, Write: true}, noc.Now())
	for i := 0; i < 10000 && noc.InFlight() > 0; i++ {
		noc.Step()
	}
	if sys.State(5, 2) != Modified {
		t.Fatalf("writer state %v, want M", sys.State(5, 2))
	}
	for _, core := range []int{0, 1, 3} {
		if sys.State(core, 2) != Invalid {
			t.Fatalf("core %d state %v, want I", core, sys.State(core, 2))
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", st.Invalidations)
	}
	if st.MeanWriteVisibility() <= 0 {
		t.Fatal("no write visibility latency recorded")
	}
}

func TestWriteHitInModifiedIsSilent(t *testing.T) {
	noc, fab := quarcNoC(t, 8)
	sys := newSys(t, noc, 8)
	sys.Issue(Op{Core: 2, Addr: 7, Write: true}, noc.Now())
	for i := 0; i < 10000 && noc.InFlight() > 0; i++ {
		noc.Step()
	}
	before := fab.FlitsForwarded()
	ok, _ := sys.Issue(Op{Core: 2, Addr: 7, Write: true}, noc.Now())
	if !ok || sys.Blocked(2) {
		t.Fatal("M-hit write blocked")
	}
	if fab.FlitsForwarded() != before {
		t.Fatal("M-hit write generated traffic")
	}
	if sys.Stats().WriteHitsM != 1 {
		t.Fatal("write hit not counted")
	}
}

func TestDirtyCopyWritesBack(t *testing.T) {
	noc, _ := quarcNoC(t, 8)
	sys := newSys(t, noc, 8)
	// Core 0 writes line 3 -> M at core 0.
	sys.Issue(Op{Core: 0, Addr: 3, Write: true}, noc.Now())
	for i := 0; i < 10000 && noc.InFlight() > 0; i++ {
		noc.Step()
	}
	// Core 4 writes the same line: core 0's M copy must write back.
	sys.Issue(Op{Core: 4, Addr: 3, Write: true}, noc.Now())
	for i := 0; i < 20000 && noc.InFlight() > 0; i++ {
		noc.Step()
	}
	st := sys.Stats()
	if st.WriteBacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.WriteBacks)
	}
	if sys.State(0, 3) != Invalid || sys.State(4, 3) != Modified {
		t.Fatalf("states: core0=%v core4=%v", sys.State(0, 3), sys.State(4, 3))
	}
}

func TestBlockedCoreRejectsIssue(t *testing.T) {
	noc, _ := quarcNoC(t, 8)
	sys := newSys(t, noc, 8)
	sys.Issue(Op{Core: 0, Addr: 1}, noc.Now())
	ok, err := sys.Issue(Op{Core: 0, Addr: 2}, noc.Now())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("blocked core accepted a second op")
	}
	if _, err := sys.Issue(Op{Core: 99, Addr: 0}, 0); err == nil {
		t.Fatal("bad core accepted")
	}
}

func TestRandomWorkloadInvariants(t *testing.T) {
	for _, name := range []string{"quarc", "spidergon"} {
		noc, fab := newNoC(t, name, 16)
		sys := newSys(t, noc, 16)
		stats, err := RunWorkload(sys, noc, 16, 3000, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reads == 0 || stats.Writes == 0 {
			t.Fatalf("workload issued nothing: %+v", stats)
		}
		if fab.Tracker.Duplicates() != 0 {
			t.Fatal("duplicate deliveries under coherence workload")
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuarcWriteVisibilityBeatsSpidergon(t *testing.T) {
	// The paper's core claim, at protocol level: identical coherence
	// workload, write visibility several times faster on the Quarc.
	run := func(name string) Stats {
		noc, _ := newNoC(t, name, 16)
		sys := newSys(t, noc, 16)
		stats, err := RunWorkload(sys, noc, 16, 4000, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	q := run("quarc")
	s := run("spidergon")
	if q.WriteUpgrades == 0 || s.WriteUpgrades == 0 {
		t.Fatal("no writes upgraded")
	}
	if q.MeanWriteVisibility()*2 >= s.MeanWriteVisibility() {
		t.Errorf("quarc write visibility %.1f not clearly below spidergon %.1f",
			q.MeanWriteVisibility(), s.MeanWriteVisibility())
	}
}

func TestLineStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if LineState(9).String() == "" {
		t.Fatal("unknown state must stringify")
	}
}

func TestNewFabricNoCMismatch(t *testing.T) {
	fab, _, err := model.Build("quarc", model.BuildConfig{N: 8, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFabricNoC(fab, make([]model.Node, 3)); err == nil {
		t.Fatal("sender count mismatch accepted")
	}
}

func TestManySeedsInvariantRobustness(t *testing.T) {
	// The protocol races (stale fetches vs invalidations, M downgrades)
	// depend on message timing; sweep seeds on both fabrics to shake out
	// interleavings. Each run ends with a full drain and invariant check.
	for seed := uint64(1); seed <= 6; seed++ {
		for _, name := range []string{"quarc", "spidergon"} {
			noc, _ := newNoC(t, name, 16)
			sys, err := NewSystem(Config{
				Cores: 16, Lines: 16, FetchLen: 6, CtrlLen: 2,
				Seed: seed, WriteFrac: 0.35,
			}, noc)
			if err != nil {
				t.Fatal(err)
			}
			noc.Bind(sys)
			if _, err := RunWorkload(sys, noc, 16, 1500, 0.08); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
