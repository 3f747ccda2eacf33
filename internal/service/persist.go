package service

import (
	"encoding/json"
	"fmt"
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
		var events []Event
		st := StateQueued
		var cached, degraded bool
		var errMsg string
		var done, total int
		for _, line := range lines[1:] {
			var e Event
			if json.Unmarshal(line, &e) != nil {
				break
			}
			events = append(events, e)
			switch e.Type {
			case "state":
				st, cached, degraded, errMsg = e.State, e.Cached, e.Degraded, e.Error
			case "point", "truncated":
				done, total = e.Done, e.Total
			}
		}
		created, _ := time.Parse(time.RFC3339Nano, hdr.Created)

		if st.terminal() {
			j := restoreJob(id, hdr.Kind, hdr.Key, hdr.Request, events, st,
				cached, degraded, errMsg, done, total, created, nil, s.journalEvent)
			// Degraded payloads are analytic estimates that were deliberately
			// kept out of the store, so only exact results re-attach here; a
			// recovered degraded job keeps its flag but serves no payload.
			if st == StateDone && !degraded {
				if b, ok := s.disk.Get(hdr.Key); ok {
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
		// to clients.
		work, werr := workFor(hdr.Kind, hdr.Request)
		if werr != nil {
			s.log.Printf("recovery: job %s unparseable, dropping: %v", id, werr)
			s.journal.Remove(id)
			continue
		}
		// Progress counters restart at zero: the re-run simulates from scratch
		// and its fresh point events count up from one again. Any deadline_ms
		// the request carried is deliberately not rearmed (restoreJob leaves
		// deadlineAt zero): the budget expired with the daemon that accepted
		// the job, and a correct late answer beats a degraded punctual one
		// for work the client already waited a restart for.
		j := restoreJob(id, hdr.Kind, hdr.Key, hdr.Request, events, StateQueued,
			false, false, "", 0, 0, created, s.countOutcome, s.journalEvent)
		j.work = work
		s.store.addRecovered(j)
		j.mu.Lock()
		j.appendEventLocked(Event{Type: "state", State: StateQueued})
		j.mu.Unlock()
		s.metrics.jobsRecovered.Add(1)
		if err := s.enqueue(j); err != nil {
			j.setState(StateFailed, err.Error())
			continue
		}
		s.log.Printf("recovery: job %s %s re-enqueued (%s)", id, hdr.Kind, j.class)
	}
}

// workFor re-validates a journaled request body into executable work — the
// same construction path the HTTP handlers use, so recovered jobs behave
// exactly like fresh submissions.
func workFor(kind string, raw json.RawMessage) (jobWork, error) {
	switch kind {
	case "run":
		var req RunRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return jobWork{}, err
		}
		_, work, err := buildRun(req)
		return work, err
	case "panel":
		var req PanelRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return jobWork{}, err
		}
		_, work, err := buildPanel(req)
		return work, err
	default: // "explore"
		var req ExploreRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return jobWork{}, err
		}
		_, work, err := buildExplore(req)
		return work, err
	}
}

// deadlineFor validates a deadline_ms field into the work deadline duration.
func deadlineFor(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("deadline_ms %d must be non-negative", ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// buildRun validates a run request into its canonical key and executable
// work. The deadline rides on the work, never the key: identical
// configurations share cache entries whatever their deadlines. The
// scheduling class is not decided here — see Server.enqueue.
func buildRun(req RunRequest) (string, jobWork, error) {
	cfg, err := req.Config()
	if err != nil {
		return "", jobWork{}, err
	}
	deadline, err := deadlineFor(req.DeadlineMs)
	if err != nil {
		return "", jobWork{}, err
	}
	work := jobWork{run: &runWork{cfg: cfg, replicates: req.replicates(), workers: req.Workers}, deadline: deadline}
	return RunKey(cfg, req.replicates()), work, nil
}

// buildPanel validates a panel request.
func buildPanel(req PanelRequest) (string, jobWork, error) {
	spec, opts, err := req.SpecOpts()
	if err != nil {
		return "", jobWork{}, err
	}
	deadline, err := deadlineFor(req.DeadlineMs)
	if err != nil {
		return "", jobWork{}, err
	}
	work := jobWork{panel: &panelWork{spec: spec, opts: opts}, deadline: deadline}
	return PanelKey(spec, opts), work, nil
}

// buildExplore validates an explore request.
func buildExplore(req ExploreRequest) (string, jobWork, error) {
	spec, opts, exp, err := req.SpecOpts()
	if err != nil {
		return "", jobWork{}, err
	}
	deadline, err := deadlineFor(req.DeadlineMs)
	if err != nil {
		return "", jobWork{}, err
	}
	work := jobWork{explore: &exploreWork{spec: spec, opts: opts, points: len(exp.Points), deduped: exp.Deduped}, deadline: deadline}
	return ExploreKey(spec, opts), work, nil
}
