// Fixture for determinism's file scope, posed as quarc/internal/service: only
// the canonical-key and wire files are checked, and api.go is one of them.
package service

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}
