package service

import "time"

// server.go is outside the file list: the HTTP layer may read the clock.
func uptime(start time.Time) time.Duration {
	return time.Since(start) // no diagnostic: unlisted file
}
