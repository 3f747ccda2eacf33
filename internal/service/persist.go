package service

import (
	"encoding/json"
	"time"
)

// journalMagic identifies line 1 of a job journal; replay rejects files
// without it (foreign or future-format journals are skipped, not guessed
// at).
const journalMagic = "quarc-job-v1"

// journalHeader is the first NDJSON line of every job journal: enough to
// rebuild the job record — and, through Request, re-validate and re-enqueue
// the work itself — without any other source of truth.
type journalHeader struct {
	Journal string          `json:"journal"`
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Created string          `json:"created"`
	Request json.RawMessage `json:"request,omitempty"`
}

// journalEvent is the Job event sink: it mirrors every in-memory event to
// the job's on-disk journal, writing the header lazily before the first
// line. It runs with j.mu held, so journal order always equals the order
// streaming subscribers observe. Terminal events close the journal handle,
// bounding open files by the number of live jobs. Journal I/O errors are
// logged and otherwise ignored — durability degrades, serving does not.
func (s *Server) journalEvent(j *Job, e Event) {
	if s.journal == nil {
		return
	}
	if !j.journaled {
		j.journaled = true
		hdr := journalHeader{
			Journal: journalMagic, ID: j.ID, Kind: j.Kind, Key: j.Key,
			Created: j.created.UTC().Format(time.RFC3339Nano), Request: j.Request,
		}
		if b, err := json.Marshal(hdr); err == nil {
			if err := s.journal.Append(j.ID, b); err != nil {
				s.log.Printf("journal %s: %v", j.ID, err)
			}
		}
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	if err := s.journal.Append(j.ID, b); err != nil {
		s.log.Printf("journal %s: %v", j.ID, err)
	}
	if e.Type == "state" && e.State.terminal() {
		s.journal.CloseJob(j.ID)
	}
}

// recoverJobs rebuilds the job store from the journals on disk, called once
// at boot before the server accepts traffic. Jobs whose journal ends in a
// terminal state come back as finished records (done jobs re-attach their
// result from the disk store, so GET /v1/jobs/{id} serves the original
// bytes); jobs that were queued or running when the daemon died are
// re-validated from their recorded request and re-enqueued, so a crash
// never silently loses accepted work. Unreadable or foreign journals are
// removed.
func (s *Server) recoverJobs() {
	if s.journal == nil {
		return
	}
	ids, err := s.journal.List()
	if err != nil {
		s.log.Printf("recovery: %v", err)
		return
	}
	for _, id := range ids {
		lines, err := s.journal.Replay(id)
		if err != nil {
			// A transient read failure (a flaky disk at boot) must not cost
			// the journal itself: skip it this boot, keep the file.
			s.log.Printf("recovery: journal %s unreadable, skipping: %v", id, err)
			continue
		}
		if len(lines) == 0 {
			s.journal.Remove(id)
			continue
		}
		var hdr journalHeader
		if json.Unmarshal(lines[0], &hdr) != nil || hdr.Journal != journalMagic || hdr.ID != id {
			s.journal.Remove(id)
			continue
		}
		j := restoreJob(hdr, lines[1:])
		if j.state.terminal() {
			// Degraded payloads are analytic estimates that were deliberately
			// kept out of the store, so only exact results re-attach here; a
			// recovered degraded job keeps its flag but serves no payload. The
			// read is bookkeeping, not a request: it bypasses the tier's
			// counters and breaker.
			if j.state == StateDone && !j.degraded {
				if b, ok := s.tier.disk.Get(hdr.Key); ok {
					j.result = b
				}
			}
			s.store.addRecovered(j)
			s.metrics.jobsRecovered.Add(1)
			continue
		}

		// The daemon died with this job queued or running. A re-run is safe:
		// execution is deterministic and the result only becomes visible via
		// the atomic cache/store write, so at-least-once here is exactly-once
		// to clients. The recorded body goes through the parser a fresh
		// submission would, so a body this build cannot parse — an unknown
		// kind or field included — is dropped rather than run under a key it
		// does not match.
		_, w, _, err := parseKind(hdr.Kind, hdr.Request)
		if err != nil {
			s.log.Printf("recovery: job %s unparseable, dropping: %v", id, err)
			s.journal.Remove(id)
			continue
		}
		// Progress counters restart at zero: the re-run simulates from scratch
		// and its fresh point events count up from one again. Any deadline_ms
		// the request carried is deliberately not rearmed (admit gets no
		// deadline): the budget expired with the daemon that accepted
		// the job, and a correct late answer beats a degraded punctual one
		// for work the client already waited a restart for.
		j.state, j.done, j.total = StateQueued, 0, 0
		s.store.addRecovered(j)
		j.mu.Lock()
		j.appendEventLocked(Event{Type: "state", State: StateQueued})
		j.mu.Unlock()
		s.metrics.jobsRecovered.Add(1)
		if s.admit(j, w, 0) == nil {
			s.log.Printf("recovery: job %s %s re-enqueued (%s)", id, hdr.Kind, w.class())
		}
	}
}
