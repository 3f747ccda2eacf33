package service

import (
	"sync"
	"time"
)

// coalescer merges identical uncached submissions: per canonical key, the
// first live job is the primary — the one that simulates — and later
// identical submissions attach as followers, settled from the primary's
// outcome instead of simulating twice. It is the only code that touches the
// in-flight map.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*chain
}

type chain struct {
	primary   *Job
	followers []follower
}

// follower is a job attached to its key's primary, with the parsed work and
// deadline it is admitted with should it be promoted.
type follower struct {
	*Job
	work     work
	deadline time.Duration
}

func newCoalescer() *coalescer { return &coalescer{inflight: make(map[string]*chain)} }

// join enters j, with its parsed work and deadline, under its key. The first
// job of a key becomes its primary and join returns nil: the caller admits
// it. Any later job attaches as a follower, in arrival order, and gets the
// primary it now waits on.
func (c *coalescer) join(j *Job, w work, deadline time.Duration) (primary *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.inflight[j.Key]; ok {
		ch.followers = append(ch.followers, follower{j, w, deadline})
		return ch.primary
	}
	c.inflight[j.Key] = &chain{primary: j}
	return nil
}

// release detaches the terminal job j from its key; for a job that is not a
// primary it does nothing. If j ended with a result the key is freed and the
// followers are returned, to be settled from that result. If it did not
// (failed, cancelled), the first still-live follower is promoted to primary
// and returned as next, to be admitted, with the live rest still attached —
// one client's cancellation never cancels another client's identical request.
// next.Job is nil when nothing is promoted.
func (c *coalescer) release(j *Job, hasResult bool) (followers []follower, next follower) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.inflight[j.Key]
	if !ok || ch.primary != j {
		return nil, follower{}
	}
	if hasResult {
		delete(c.inflight, j.Key)
		return ch.followers, follower{}
	}
	var live []follower
	for _, f := range ch.followers {
		if !f.State().terminal() {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		delete(c.inflight, j.Key)
		return nil, follower{}
	}
	ch.primary, ch.followers = live[0].Job, live[1:]
	return nil, live[0]
}
