// Fixture for the coordsection analyzer: the file is named parallel.go, so
// every non-coordinator function in it is held to the worker-0 discipline.
package coordsection

type pool struct {
	halt    bool
	n       int
	shards  []int
	scratch []scratch
}

// scratch is a per-worker record.
type scratch struct {
	n   int
	box []int
}

// apply mutates shared state on behalf of the coordinator.
//
//quarc:coordinator
func apply(p *pool) {
	p.n++ // coordinator functions are exempt
}

func cycles(p *pool, w int) {
	p.halt = true   // want "write to shared state p.halt outside a worker-0 section"
	p.n++           // want "write to shared state p.n outside a worker-0 section"
	apply(p)        // want "call to coordinator function apply outside a worker-0 section"
	p.shards[w] = 1 // sharded per worker: index expressions are exempt
	if w == 0 {
		p.halt = true // guarded: legal
		apply(p)      // guarded: legal
	}
	if w == 1 {
		p.halt = false // want "write to shared state p.halt outside a worker-0 section"
	}
	if w == 0 {
		go func() {
			p.halt = true // want "write to shared state p.halt outside a worker-0 section"
		}()
	}
}

func scratches(p *pool, w int) {
	sc := &p.scratch[w]
	sc.n++                     // alias of the worker's own record: legal
	sc.box = append(sc.box, w) // likewise
	p.scratch[w].n++           // own record under the worker id: legal
	for v := range p.scratch {
		p.scratch[v].box = append(p.scratch[v].box, w) // want "write to another worker's scratch p.scratch\\[v\\].box"
		other := &p.scratch[v]
		other.n++ // want "write to shared state other.n outside a worker-0 section"
	}
	if w == 0 {
		for v := range p.scratch {
			p.scratch[v].n = 0 // the coordinator may fold every record: legal
		}
	}
}
