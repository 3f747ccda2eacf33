package service

import "sync"

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
	followers []*Job
}

func newCoalescer() *coalescer { return &coalescer{inflight: make(map[string]*chain)} }

// join enters j under its key. The first job of a key becomes its primary and
// join returns nil: the caller schedules it. Any later job attaches as a
// follower, in arrival order, and gets the primary it now waits on.
func (c *coalescer) join(j *Job) (primary *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.inflight[j.Key]; ok {
		ch.followers = append(ch.followers, j)
		return ch.primary
	}
	c.inflight[j.Key] = &chain{primary: j}
	return nil
}

// release detaches the terminal job j from its key; for a job that is not a
// primary it does nothing. If j ended with a result the key is freed and the
// followers are returned, to be settled from that result. If it did not
// (failed, cancelled), the first still-live follower is promoted to primary
// and returned as next, to be scheduled, with the live rest still attached —
// one client's cancellation never cancels another client's identical request.
func (c *coalescer) release(j *Job, hasResult bool) (followers []*Job, next *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.inflight[j.Key]
	if !ok || ch.primary != j {
		return nil, nil
	}
	if hasResult {
		delete(c.inflight, j.Key)
		return ch.followers, nil
	}
	var live []*Job
	for _, f := range ch.followers {
		if !f.State().terminal() {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		delete(c.inflight, j.Key)
		return nil, nil
	}
	ch.primary, ch.followers = live[0], live[1:]
	return nil, live[0]
}
