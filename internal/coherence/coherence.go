// Package coherence implements a write-invalidate MSI cache-coherence
// protocol on top of the simulated NoC.
//
// The paper motivates the Quarc almost entirely through this workload:
// "Broadcast traffic in NoCs is particularly important in MPSoC as it is the
// key mechanism for keeping caches in sync" (§1) and "As the number of cores
// in MPSoCs grows, cache synchronization will become a bottleneck in
// NoC-based MPSoCs unless the NoC has an efficient broadcast mechanism"
// (§2.2). This package makes that workload concrete: each node hosts a
// private cache over a shared address space with snooping-style,
// broadcast-based invalidation — the design point that NoCs without hardware
// broadcast make expensive.
//
// Protocol (broadcast write-invalidate MSI, no directory):
//
//   - Read hit (S or M): local, no traffic.
//   - Read miss: unicast fetch request to the line's home node (address
//     interleaved); the home unicasts the line back; the line enters S.
//   - Write hit in M: local.
//   - Write (miss or hit in S): the writer broadcasts an invalidation. Every
//     other core invalidates its copy on receipt. The write completes
//     (globally visible) when the LAST core has received the invalidation —
//     the broadcast completion latency of the fabric. The line enters M.
//   - An incoming invalidation for a line a core holds in M demotes it; the
//     dirty data write-back is modelled as a unicast to the home node.
//
// The protocol engine is deliberately event-count exact but data-value
// abstract: it tracks line states, message causality and completion times,
// not byte contents. That is precisely the granularity at which the NoC
// comparison is meaningful.
package coherence

import (
	"fmt"

	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/rng"
)

// LineState is the MSI state of a cache line in one cache.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// Op is one memory operation issued by a core.
type Op struct {
	Core  int
	Addr  uint32
	Write bool
}

// Config sizes the coherence system.
type Config struct {
	Cores     int
	Lines     int // distinct cache lines in the shared working set
	FetchLen  int // flits per line fetch reply (data message)
	CtrlLen   int // flits per control message (requests, invalidations)
	Seed      uint64
	WriteFrac float64 // fraction of accesses that are writes
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores < 2:
		return fmt.Errorf("coherence: %d cores", c.Cores)
	case c.Lines < 1:
		return fmt.Errorf("coherence: %d lines", c.Lines)
	case c.FetchLen < 2 || c.CtrlLen < 2:
		return fmt.Errorf("coherence: message lengths must be >= 2 flits")
	case c.WriteFrac < 0 || c.WriteFrac > 1:
		return fmt.Errorf("coherence: write fraction %v", c.WriteFrac)
	}
	return nil
}

// Stats aggregates protocol-level results.
type Stats struct {
	Reads           int64
	Writes          int64
	ReadHits        int64
	ReadMisses      int64
	WriteUpgrades   int64 // writes that needed an invalidation broadcast
	WriteHitsM      int64 // silent writes (already Modified)
	Invalidations   int64 // line copies invalidated at remote cores
	WriteBacks      int64
	SumWriteVisible int64 // total cycles from write issue to global visibility
	SumReadLatency  int64 // total cycles from read miss to line arrival
}

// MeanWriteVisibility returns the average cycles for a write to become
// globally visible (invalidation broadcast completion).
func (s Stats) MeanWriteVisibility() float64 {
	if s.WriteUpgrades == 0 {
		return 0
	}
	return float64(s.SumWriteVisible) / float64(s.WriteUpgrades)
}

// MeanReadMissLatency returns the average read miss service time.
func (s Stats) MeanReadMissLatency() float64 {
	if s.ReadMisses == 0 {
		return 0
	}
	return float64(s.SumReadLatency) / float64(s.ReadMisses)
}

// System is the protocol engine.
type System struct {
	cfg   Config
	fab   *network.Fabric
	nodes []model.Node  // core i sends through nodes[i]
	state [][]LineState // [core][line]
	stats Stats

	// pending maps in-flight NoC message ids to completion actions.
	pending map[uint64]pendingOp
	// blocked cores wait for an outstanding miss/upgrade to finish.
	blocked []bool
	// epoch serialises writes against in-flight fetches: each completed
	// invalidation bumps the line's epoch, and a data reply issued under an
	// older epoch is stale and must not install a Shared copy (the core
	// retries on its next access). This is the race a directory would
	// serialise in a real implementation.
	epoch []uint64
	r     *rng.Stream
}

type pendingKind uint8

const (
	pendingFetch pendingKind = iota // read miss: request leg
	pendingReply                    // read miss: data leg
	pendingInval                    // write upgrade broadcast
	pendingWB                       // write-back (fire and forget)
)

type pendingOp struct {
	kind   pendingKind
	core   int
	line   int
	issued int64
	epoch  uint64 // line epoch at issue time (fetch staleness check)
}

// NewSystem builds a coherence system over a network as model.Build returns
// it — the fabric and one node per network node — and routes the fabric's
// message completions into the protocol, replacing any tracker callback
// already installed.
func NewSystem(cfg Config, fab *network.Fabric, nodes []model.Node) (*System, error) {
	if fab.N != len(nodes) {
		return nil, fmt.Errorf("coherence: %d nodes for a %d-node fabric", len(nodes), fab.N)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := make([][]LineState, cfg.Cores)
	for i := range st {
		st[i] = make([]LineState, cfg.Lines)
	}
	s := &System{
		cfg:     cfg,
		fab:     fab,
		nodes:   nodes,
		state:   st,
		pending: make(map[uint64]pendingOp),
		blocked: make([]bool, cfg.Cores),
		epoch:   make([]uint64, cfg.Lines),
		r:       rng.New(cfg.Seed, 0xC0DE),
	}
	fab.Tracker.OnDone = func(r network.MessageRecord) { s.MessageDone(r.MsgID, r.Last) }
	return s, nil
}

// Stats returns the accumulated protocol statistics.
func (s *System) Stats() Stats { return s.stats }

// State returns the MSI state of a line in a core's cache (test hook).
func (s *System) State(core, line int) LineState { return s.state[core][line] }

// Blocked reports whether a core has an outstanding miss.
func (s *System) Blocked(core int) bool { return s.blocked[core] }

// home returns the line's home node (address-interleaved).
func (s *System) home(line int) int { return line % s.cfg.Cores }

// Issue submits one memory operation. It returns false if the core is
// blocked on an outstanding miss (the caller retries later), and an error
// for invalid operations.
func (s *System) Issue(op Op, now int64) (bool, error) {
	if op.Core < 0 || op.Core >= s.cfg.Cores {
		return false, fmt.Errorf("coherence: no such core %d", op.Core)
	}
	line := int(op.Addr) % s.cfg.Lines
	if s.blocked[op.Core] {
		return false, nil
	}
	st := s.state[op.Core][line]
	if op.Write {
		s.stats.Writes++
		if st == Modified {
			s.stats.WriteHitsM++
			return true, nil
		}
		// Upgrade: broadcast the invalidation; the write is visible when
		// the last core has seen it.
		s.stats.WriteUpgrades++
		id := s.nodes[op.Core].SendBroadcast(s.cfg.CtrlLen, now)
		s.pending[id] = pendingOp{kind: pendingInval, core: op.Core, line: line, issued: now}
		s.blocked[op.Core] = true
		return true, nil
	}
	s.stats.Reads++
	if st != Invalid {
		s.stats.ReadHits++
		return true, nil
	}
	s.stats.ReadMisses++
	home := s.home(line)
	if home == op.Core {
		// Local home: the request leg needs no network traffic, but the
		// home still serialises the access: a Modified holder elsewhere is
		// downgraded and writes its dirty copy back before the local read
		// completes.
		for c := 0; c < s.cfg.Cores; c++ {
			if s.state[c][line] != Modified {
				continue
			}
			s.state[c][line] = Shared
			s.stats.WriteBacks++
			if c != home {
				id := s.nodes[c].SendUnicast(home, s.cfg.FetchLen, now)
				s.pending[id] = pendingOp{kind: pendingWB, core: c, line: line, issued: now}
			}
		}
		s.state[op.Core][line] = Shared
		return true, nil
	}
	id := s.nodes[op.Core].SendUnicast(home, s.cfg.CtrlLen, now)
	s.pending[id] = pendingOp{kind: pendingFetch, core: op.Core, line: line,
		issued: now, epoch: s.epoch[line]}
	s.blocked[op.Core] = true
	return true, nil
}

// MessageDone is called when a NoC message completes (NewSystem wires it to
// the fabric tracker). Unknown ids are ignored: the workload may share the
// fabric with other traffic.
func (s *System) MessageDone(msgID uint64, completed int64) {
	p, ok := s.pending[msgID]
	if !ok {
		return
	}
	delete(s.pending, msgID)
	switch p.kind {
	case pendingFetch:
		// Request arrived at the home, which serialises accesses to the
		// line: a Modified holder is downgraded to Shared (its dirty data
		// written back) before the data is returned.
		for c := 0; c < s.cfg.Cores; c++ {
			if s.state[c][p.line] != Modified {
				continue
			}
			s.state[c][p.line] = Shared
			s.stats.WriteBacks++
			if home := s.home(p.line); home != c {
				id := s.nodes[c].SendUnicast(home, s.cfg.FetchLen, completed)
				s.pending[id] = pendingOp{kind: pendingWB, core: c, line: p.line, issued: completed}
			}
		}
		// The reply carries the line as of this serialisation point; an
		// invalidation completing while it is in flight makes it stale.
		id := s.nodes[s.home(p.line)].SendUnicast(p.core, s.cfg.FetchLen, completed)
		s.pending[id] = pendingOp{kind: pendingReply, core: p.core, line: p.line,
			issued: p.issued, epoch: s.epoch[p.line]}
	case pendingReply:
		if s.epoch[p.line] == p.epoch {
			s.state[p.core][p.line] = Shared
		}
		// A stale reply (an invalidation completed meanwhile) unblocks the
		// core without installing the line; its next access misses again.
		s.stats.SumReadLatency += completed - p.issued
		s.blocked[p.core] = false
	case pendingInval:
		// Every other core drops its copy; cores holding M write back.
		for c := 0; c < s.cfg.Cores; c++ {
			if c == p.core {
				continue
			}
			switch s.state[c][p.line] {
			case Modified:
				s.stats.WriteBacks++
				home := s.home(p.line)
				if home != c {
					id := s.nodes[c].SendUnicast(home, s.cfg.FetchLen, completed)
					s.pending[id] = pendingOp{kind: pendingWB, core: c, line: p.line, issued: completed}
				}
				s.state[c][p.line] = Invalid
				s.stats.Invalidations++
			case Shared:
				s.state[c][p.line] = Invalid
				s.stats.Invalidations++
			}
		}
		s.state[p.core][p.line] = Modified
		s.epoch[p.line]++
		s.stats.SumWriteVisible += completed - p.issued
		s.blocked[p.core] = false
	case pendingWB:
		// Fire and forget.
	}
}

// CheckInvariants verifies single-writer/multiple-reader: at most one core
// holds a line in M, and if any core holds M no other core holds S. It is
// called by tests after every drain.
func (s *System) CheckInvariants() error {
	for line := 0; line < s.cfg.Lines; line++ {
		mHolders, sHolders := 0, 0
		for c := 0; c < s.cfg.Cores; c++ {
			switch s.state[c][line] {
			case Modified:
				mHolders++
			case Shared:
				sHolders++
			}
		}
		if mHolders > 1 {
			return fmt.Errorf("coherence: line %d modified in %d caches", line, mHolders)
		}
		if mHolders == 1 && sHolders > 0 {
			return fmt.Errorf("coherence: line %d M with %d sharers", line, sHolders)
		}
	}
	return nil
}

// RandomOp draws a random operation according to the configured write
// fraction and a uniformly random core and line.
func (s *System) RandomOp() Op {
	return Op{
		Core:  s.r.Intn(s.cfg.Cores),
		Addr:  uint32(s.r.Intn(s.cfg.Lines)),
		Write: s.r.Bernoulli(s.cfg.WriteFrac),
	}
}

// RunWorkload drives every core through a random read/write mix for the
// given number of issue slots: each cycle every unblocked core issues one
// operation with probability issueProb. It steps the fabric as it goes and
// drains at the end, returning the protocol statistics.
func RunWorkload(sys *System, cycles int64, issueProb float64) (Stats, error) {
	fab := sys.fab
	for c := int64(0); c < cycles; c++ {
		for core := 0; core < sys.cfg.Cores; core++ {
			if sys.Blocked(core) {
				continue
			}
			op := sys.RandomOp()
			op.Core = core
			if !sys.r.Bernoulli(issueProb) {
				continue
			}
			if _, err := sys.Issue(op, fab.Now()); err != nil {
				return Stats{}, err
			}
		}
		fab.Step()
	}
	for i := 0; i < 200000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if left := fab.Tracker.InFlight(); left > 0 {
		return sys.Stats(), fmt.Errorf("coherence: %d messages undelivered", left)
	}
	if err := sys.CheckInvariants(); err != nil {
		return sys.Stats(), err
	}
	return sys.Stats(), nil
}
