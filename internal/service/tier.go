package service

import (
	"errors"
	"log"

	dstore "quarc/internal/store"
)

// resultTier is the result cache as the request path sees it: the in-memory
// LRU over the optional disk store (nil without a DataDir), read-through and
// write-through, behind the circuit breaker. It is the only code that reads
// or writes the disk store on the request path, decides what each outcome
// means to the breaker, and counts store hits and faults. Store failures never
// surface to clients as errors — a failed read is a miss, a failed write costs
// durability, not the response — and while the breaker is open the disk is
// not consulted at all (quarcd serves memory-cache-only).
type resultTier struct {
	mem     *Cache
	disk    *dstore.Store
	breaker *Breaker
	metrics *Metrics
	log     *log.Logger
}

// get is the client-visible lookup: a memory absence counts as a cache miss.
func (t *resultTier) get(key string) ([]byte, bool) { return t.lookup(key, true) }

// probe is get for internal re-checks (at dequeue, per explore point): a hit
// still counts — it saved a simulation — but an absence is not a miss, so the
// hit rate keeps measuring client-visible lookups only.
func (t *resultTier) probe(key string) ([]byte, bool) { return t.lookup(key, false) }

// lookup reads memory first, then disk; a disk hit refills the memory tier,
// which is what makes a restarted daemon answer with zero points re-simulated.
func (t *resultTier) lookup(key string, countMiss bool) ([]byte, bool) {
	if b, ok := t.mem.get(key, countMiss); ok {
		return b, true
	}
	if t.disk == nil || !t.breaker.Allow() {
		return nil, false
	}
	b, err := t.disk.GetE(key)
	switch {
	case err == nil:
		t.breaker.Success()
		t.metrics.storeHits.Add(1)
		t.mem.Put(key, b)
		return b, true
	case errors.Is(err, dstore.ErrNotFound):
		// Absence is not a fault — but an index miss performs no I/O either,
		// so it is no evidence of health: leave the failure count alone.
		t.breaker.Neutral()
	default:
		t.fault(err)
	}
	return nil, false
}

// put writes a finished result through both tiers.
func (t *resultTier) put(key string, val []byte) {
	t.mem.Put(key, val)
	if t.disk == nil || !t.breaker.Allow() {
		return
	}
	if err := t.disk.Put(key, val); err != nil {
		t.fault(err)
		return
	}
	t.breaker.Success()
}

// fault feeds one disk I/O failure to the breaker and the fault counter.
func (t *resultTier) fault(err error) {
	t.breaker.Failure()
	t.metrics.storeFaults.Add(1)
	t.log.Printf("store: %v (breaker %s)", err, t.breaker.State())
}
