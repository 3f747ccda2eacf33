package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reply is what a ?wait=1 caller reads back from quarcd.
type reply struct {
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result"`
}

// newClient returns a client holding exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// post sends one body and decodes the job snapshot. Any non-200, transport
// error or state other than done is an error.
func post(c *http.Client, url string, body []byte) (reply, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	if r.State != "done" {
		return r, fmt.Errorf("state %q: %s", r.State, r.Error)
	}
	return r, nil
}

// loopResult is one closed-loop burst.
type loopResult struct {
	elapsed time.Duration
	lat     []time.Duration // per request, indexed like the bodies
	failed  int
	first   error // first failure, for the report
}

// closedLoop drives url with loopClients callers, each on its own keep-alive
// connection and each sending its next request only after the previous reply
// arrived — quarcd's callers (CLIs, scripts, quarcload) are ?wait=1 callers
// that wait for the answer. body(i) supplies request i; verify (may be nil)
// checks reply i and returns an error to count it as failed.
func closedLoop(url string, n int, body func(i int) []byte, verify func(i int, r reply) error) loopResult {
	res := loopResult{lat: make([]time.Duration, n)}
	var next, failed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < loopClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				r, err := post(client, url, body(i))
				res.lat[i] = time.Since(t0)
				if err == nil && verify != nil {
					err = verify(i, r)
				}
				if err != nil {
					failed.Add(1)
					mu.Lock()
					if res.first == nil {
						res.first = fmt.Errorf("request %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.failed = int(failed.Load())
	return res
}
