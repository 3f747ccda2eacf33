// A blessed pool file: its goroutine spawns are exempt, and nothing else is.
//
//quarc:poolfile fixture pool; determinism proven elsewhere
package network

import "time"

func pooled(m map[int]int) int64 {
	done := make(chan struct{})
	go func() { // no diagnostic: the file is a //quarc:poolfile
		close(done)
	}()
	<-done
	for range m { // want "map iteration order is randomized"
	}
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}
