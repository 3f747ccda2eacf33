package traffic

import (
	"fmt"

	"quarc/internal/rng"
	"quarc/internal/sim"
)

// Bursty traffic: the paper singles out burstiness as the Spidergon's worst
// case ("This situation is even exacerbated when the network is under bursty
// traffic as a result of some operations such as broadcast", §1). This
// source is a two-state Markov-modulated Bernoulli process: in the ON state
// a node generates messages at onRate per cycle; in the OFF state it is
// silent. Mean burst and gap lengths are geometric.
type BurstyConfig struct {
	N       int
	OnRate  float64 // messages/node/cycle while ON
	MeanOn  float64 // mean burst length in cycles
	MeanOff float64 // mean silence length in cycles
	Beta    float64 // broadcast fraction
	// McastFrac/McastSize mirror Config: the fraction of non-broadcast
	// messages sent as McastSize-target multicasts, drawn after the
	// broadcast draw so zero knobs leave existing streams untouched.
	McastFrac float64
	McastSize int
	MsgLen    int
	Seed      uint64
	Until     int64
}

// Validate checks the parameters.
func (c BurstyConfig) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("traffic: %d nodes", c.N)
	case c.MeanOn < 1 || c.MeanOff < 1:
		return fmt.Errorf("traffic: burst/gap means must both be >= 1 cycle")
	case c.OnRate <= 0 || c.OnRate > 1:
		return fmt.Errorf("traffic: bursty on-rate %v outside (0,1] msg/node/cycle", c.OnRate)
	case c.Beta < 0 || c.Beta > 1:
		return fmt.Errorf("traffic: beta %v outside [0,1]", c.Beta)
	case c.MsgLen < 2:
		return fmt.Errorf("traffic: message length %d (need >= 2 flits)", c.MsgLen)
	}
	return validateMulticast(c.McastFrac, c.McastSize, c.N)
}

// MeanRate returns the long-run average offered load of the process.
func (c BurstyConfig) MeanRate() float64 {
	return c.OnRate * c.MeanOn / (c.MeanOn + c.MeanOff)
}

// BurstySource is one node's ON/OFF process.
type BurstySource struct {
	node   int
	cfg    BurstyConfig
	r      *rng.Stream
	sender Sender
	sent   int64
	on     bool
	pool   []int // reused multicast target scratch
}

// Sent returns how many messages this source generated.
func (s *BurstySource) Sent() int64 { return s.sent }

// InstallBursty creates one ON/OFF source per node on the kernel.
func InstallBursty(k *sim.Kernel, cfg BurstyConfig, senders []Sender) ([]*BurstySource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(senders) != cfg.N {
		return nil, fmt.Errorf("traffic: %d senders for %d nodes", len(senders), cfg.N)
	}
	sources := make([]*BurstySource, cfg.N)
	for node := 0; node < cfg.N; node++ {
		src := &BurstySource{
			node:   node,
			cfg:    cfg,
			r:      rng.New(cfg.Seed, 0xB0B0+uint64(node)),
			sender: senders[node],
		}
		sources[node] = src
		// Each source alternates ON/OFF phases; inside an ON phase it
		// behaves like a Bernoulli source at OnRate. The phase process is one
		// ticker skipping to the next phase change. A burst's arrivals are
		// drawn when it starts and take their calendar sequence numbers
		// there, which fixes their order against other sources' same-cycle
		// events, so each stays an event of its own; they share one callback.
		arrive := src.fire
		var phases *sim.Event
		phases = k.Ticker(src.r.Geometric(0.5), 1, sim.PriTraffic, func(now sim.Time) bool {
			if cfg.Until > 0 && now >= cfg.Until {
				return false
			}
			src.on = !src.on
			var length int64
			if src.on {
				length = 1 + src.r.Geometric(1/cfg.MeanOn)
				// Schedule the burst's arrivals.
				for t := now; t < now+length; t++ {
					if cfg.Until > 0 && t >= cfg.Until {
						break
					}
					if src.r.Bernoulli(cfg.OnRate) {
						k.Schedule(t, sim.PriTraffic, arrive)
					}
				}
			} else {
				length = 1 + src.r.Geometric(1/cfg.MeanOff)
			}
			phases.SkipTo(now + length)
			return true
		})
	}
	return sources, nil
}

func (s *BurstySource) fire(now int64) {
	switch {
	case s.cfg.Beta > 0 && s.r.Bernoulli(s.cfg.Beta):
		s.sender.SendBroadcast(s.cfg.MsgLen, now)
	case s.cfg.McastFrac > 0 && s.r.Bernoulli(s.cfg.McastFrac):
		s.pool = multicastTargets(s.pool, s.r, s.cfg.N, s.node, s.cfg.McastSize)
		s.sender.SendMulticast(s.pool[:s.cfg.McastSize], s.cfg.MsgLen, now)
	default:
		n := s.cfg.N
		d := s.r.Intn(n - 1)
		if d >= s.node {
			d++
		}
		s.sender.SendUnicast(d, s.cfg.MsgLen, now)
	}
	s.sent++
}
