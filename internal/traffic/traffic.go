// Package traffic generates the synthetic workloads of the paper's
// evaluation: open-loop message arrivals per node (a discretised Poisson
// process), uniformly random destinations, a configurable broadcast fraction
// β and fixed message length M (§3.2: "changing the network size, message
// length and the rate of broadcast traffic").
//
// Additional spatial patterns (hotspot, antipodal, nearest-neighbour,
// bit-reverse) and an ON/OFF bursty arrival process support the stress and
// ablation experiments.
package traffic

import (
	"fmt"
	"strings"

	"quarc/internal/rng"
	"quarc/internal/sim"
)

// Sender is the send-side surface every network adapter exposes. Adapters
// with hardware collective support (the Quarc transceiver) route a multicast
// natively; the others emulate it by unicast fan-out — which is exactly the
// comparison the paper's evaluation turns on.
type Sender interface {
	SendUnicast(dst, msgLen int, now int64) uint64
	SendBroadcast(msgLen int, now int64) uint64
	SendMulticast(targets []int, msgLen int, now int64) uint64
}

// Pattern selects the spatial distribution of unicast destinations.
type Pattern int

const (
	Uniform Pattern = iota
	Hotspot
	Antipodal
	NearestNeighbor
	BitReverse
)

// String is the pattern's wire name, the one ParsePattern reads.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case Antipodal:
		return "antipodal"
	case NearestNeighbor:
		return "neighbor"
	case BitReverse:
		return "bitreverse"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern resolves a pattern's wire name, the String of one of
// Uniform..BitReverse in any case; "" means Uniform.
func ParsePattern(name string) (Pattern, error) {
	if name == "" {
		return Uniform, nil
	}
	lower := strings.ToLower(name)
	for p := Uniform; p <= BitReverse; p++ {
		if lower == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q", name)
}

// Config parameterises a workload.
type Config struct {
	N           int     // nodes
	Rate        float64 // messages per node per cycle (the x-axis of Figs 9-11)
	Beta        float64 // fraction of messages that are broadcasts (β)
	MsgLen      int     // flits per message (M)
	Pattern     Pattern
	HotspotBias float64 // probability a unicast targets the hotspot, node 0
	// McastFrac is the fraction of the non-broadcast messages sent as
	// McastSize-target multicasts (distinct uniform targets, never self).
	// The multicast draw happens after the broadcast draw, so a zero
	// McastFrac leaves the random streams of existing workloads untouched.
	McastFrac float64
	McastSize int // targets per multicast; 2..N-1, required with McastFrac
	// MeanOn/MeanOff, when either is non-zero, make each node a two-state
	// Markov-modulated Bernoulli process, the burstiness the paper names as
	// the Spidergon's worst case (§1): geometric bursts and silences of these
	// mean lengths in cycles, silent when OFF and Bernoulli at the ON-state
	// rate when ON. Rate stays the long-run mean offered load.
	MeanOn, MeanOff float64
	Seed            uint64
	Until           int64 // stop generating at this cycle (0 = forever)
}

func (c Config) bursty() bool { return c.MeanOn != 0 || c.MeanOff != 0 }

// onRate is the ON-state rate that yields mean offered load Rate under the
// ON/OFF duty cycle.
func (c Config) onRate() float64 { return c.Rate * (c.MeanOn + c.MeanOff) / c.MeanOn }

// Validate checks the workload parameters. An ON/OFF source is judged by its
// burst and gap means and its ON-state rate, not by Rate or HotspotBias. The
// multicast knobs are both set or both zero, with a size that names a genuine
// multi-target collective smaller than a broadcast. Every range test is
// written !(lo <= x && x <= hi), so a NaN fails it.
func (c Config) Validate() error {
	bursty := c.bursty()
	switch {
	case c.N < 2:
		return fmt.Errorf("traffic: %d nodes", c.N)
	case bursty && !(c.MeanOn >= 1 && c.MeanOff >= 1):
		return fmt.Errorf("traffic: burst/gap means must both be >= 1 cycle")
	case bursty && !(0 < c.onRate() && c.onRate() <= 1):
		return fmt.Errorf("traffic: bursty on-rate %v outside (0,1] msg/node/cycle", c.onRate())
	case !bursty && !(0 <= c.Rate && c.Rate <= 1):
		return fmt.Errorf("traffic: rate %v outside [0,1]", c.Rate)
	case !(0 <= c.Beta && c.Beta <= 1):
		return fmt.Errorf("traffic: beta %v outside [0,1]", c.Beta)
	case c.MsgLen < 2:
		return fmt.Errorf("traffic: message length %d (need >= 2 flits)", c.MsgLen)
	case !bursty && !(0 <= c.HotspotBias && c.HotspotBias <= 1):
		return fmt.Errorf("traffic: hotspot bias %v outside [0,1]", c.HotspotBias)
	case !(0 <= c.McastFrac && c.McastFrac <= 1):
		return fmt.Errorf("traffic: multicast fraction %v outside [0,1]", c.McastFrac)
	case c.McastFrac == 0 && c.McastSize != 0:
		return fmt.Errorf("traffic: multicast size %d without a multicast fraction", c.McastSize)
	case c.McastFrac > 0 && (c.McastSize < 2 || c.McastSize > c.N-1):
		return fmt.Errorf("traffic: multicast size %d outside [2,%d]", c.McastSize, c.N-1)
	case !(Uniform <= c.Pattern && c.Pattern <= BitReverse):
		return fmt.Errorf("traffic: unknown pattern %v", c.Pattern)
	}
	return nil
}

// Source is the per-node generator process.
type Source struct {
	node   int
	cfg    Config
	r      *rng.Stream
	sender Sender
	sent   int64
	pool   []int // reused multicast target scratch
}

// Sent returns how many messages this source generated.
func (s *Source) Sent() int64 { return s.sent }

// destination draws a unicast destination for this source.
func (s *Source) destination() int {
	n := s.cfg.N
	switch s.cfg.Pattern {
	case Hotspot:
		if s.node != 0 && s.r.Bernoulli(s.cfg.HotspotBias) {
			return 0
		}
	case Antipodal:
		return (s.node + n/2) % n
	case NearestNeighbor:
		return (s.node + 1) % n
	case BitReverse:
		d := bitReverse(s.node, n)
		if d != s.node {
			return d
		}
	}
	d := s.r.Intn(n - 1)
	if d >= s.node {
		d++
	}
	return d
}

func bitReverse(x, n int) int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := 0
	for i := 0; i < bits; i++ {
		if x&(1<<i) != 0 {
			out |= 1 << (bits - 1 - i)
		}
	}
	return out % n
}

// fire generates one message at the given cycle.
func (s *Source) fire(now int64) {
	switch {
	case s.cfg.Beta > 0 && s.r.Bernoulli(s.cfg.Beta):
		s.sender.SendBroadcast(s.cfg.MsgLen, now)
	case s.cfg.McastFrac > 0 && s.r.Bernoulli(s.cfg.McastFrac):
		s.pool = multicastTargets(s.pool, s.r, s.cfg.N, s.node, s.cfg.McastSize)
		s.sender.SendMulticast(s.pool[:s.cfg.McastSize], s.cfg.MsgLen, now)
	default:
		s.sender.SendUnicast(s.destination(), s.cfg.MsgLen, now)
	}
	s.sent++
}

// multicastTargets draws k distinct destinations for a multicast from self —
// a partial Fisher-Yates over the other n-1 nodes, so every k-subset is
// equally likely and the draw costs exactly k Intn calls. The pool slice is
// reused across calls; the first k entries are the targets.
func multicastTargets(pool []int, r *rng.Stream, n, self, k int) []int {
	pool = pool[:0]
	for d := 0; d < n; d++ {
		if d != self {
			pool = append(pool, d)
		}
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool
}

// Install creates one source per node and schedules their arrival processes
// on the kernel. A Bernoulli source has geometric gaps with mean 1/rate, the
// discrete analogue of Poisson arrivals; it is one kernel ticker that skips
// to its next arrival, so generating a message schedules nothing new: the
// ticker takes its sequence number after the callback, exactly where a
// self-rescheduling arrival would. An ON/OFF source is one ticker that skips
// to its next phase change (see installOnOff). It returns the sources for
// inspection.
func Install(k *sim.Kernel, cfg Config, senders []Sender) ([]*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(senders) != cfg.N {
		return nil, fmt.Errorf("traffic: %d senders for %d nodes", len(senders), cfg.N)
	}
	sources := make([]*Source, cfg.N)
	for node := 0; node < cfg.N; node++ {
		src := &Source{node: node, cfg: cfg, sender: senders[node]}
		sources[node] = src
		if cfg.bursty() {
			src.r = rng.New(cfg.Seed, 0xB0B0+uint64(node))
			src.installOnOff(k)
			continue
		}
		src.r = rng.New(cfg.Seed, uint64(node)+1)
		if cfg.Rate <= 0 {
			continue
		}
		var arrivals *sim.Event
		arrivals = k.Ticker(src.r.Geometric(cfg.Rate), 1, sim.PriTraffic, func(now sim.Time) bool {
			if cfg.Until > 0 && now >= cfg.Until {
				return false
			}
			src.fire(now)
			arrivals.SkipTo(now + src.r.Geometric(cfg.Rate) + 1)
			return true
		})
	}
	return sources, nil
}

// installOnOff schedules the source's ON/OFF phases: one ticker skipping to
// the next phase change, whose first change comes after a Geometric(0.5)
// wait. Inside an ON phase the source is Bernoulli at the ON-state rate. A
// burst's arrivals are drawn when it starts and take their calendar sequence
// numbers there, which fixes their order against other sources' same-cycle
// events, so each stays an event of its own; they share one callback.
func (s *Source) installOnOff(k *sim.Kernel) {
	cfg, onRate := s.cfg, s.cfg.onRate()
	arrive := s.fire
	on := false
	var phases *sim.Event
	phases = k.Ticker(s.r.Geometric(0.5), 1, sim.PriTraffic, func(now sim.Time) bool {
		if cfg.Until > 0 && now >= cfg.Until {
			return false
		}
		on = !on
		var length int64
		if on {
			length = 1 + s.r.Geometric(1/cfg.MeanOn)
			for t := now; t < now+length; t++ {
				if cfg.Until > 0 && t >= cfg.Until {
					break
				}
				if s.r.Bernoulli(onRate) {
					k.Schedule(t, sim.PriTraffic, arrive)
				}
			}
		} else {
			length = 1 + s.r.Geometric(1/cfg.MeanOff)
		}
		phases.SkipTo(now + length)
		return true
	})
}
