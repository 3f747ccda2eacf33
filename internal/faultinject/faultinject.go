// Package faultinject provides deterministic, seed-driven fault injection
// at the filesystem boundary of quarcd's durability layer. A Plan is a
// reproducible schedule of injected I/O errors, torn writes and latency
// spikes: every operation consults the plan's seeded generator in a fixed
// order, so the same Spec produces the same fault schedule on every run —
// chaos tests are property tests, not flaky dice rolls.
//
// The package also defines FS, the narrow filesystem surface internal/store
// performs its I/O through. Production code passes OS{}, a zero-cost
// pass-through to the os package; chaos tests and quarcd's -chaos flag pass
// Plan.Wrap(OS{}), which injects faults according to the plan. Boot-path
// operations (MkdirAll, ReadDir) are never injected: a fault plan exists to
// exercise the serving defenses, which requires the daemon to come up first.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel every injected failure wraps; defenses and
// tests distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("injected I/O fault")

// File is the writable-file surface the store's atomic writes need.
type File interface {
	Write(p []byte) (n int, err error)
	Sync() error
	Close() error
}

// FS is the filesystem boundary of internal/store: everything the result
// store and the job journal touch on disk goes through one of these.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Chtimes(path string, atime, mtime time.Time) error
	// SyncDir fsyncs a directory, making a preceding rename in it durable
	// against power loss (fsyncing the file alone persists its blocks, not
	// the directory entry that names them).
	SyncDir(path string) error
}

// OS is the pass-through FS over the os package — the production default.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                     { return os.Remove(path) }
func (OS) Chtimes(p string, a, m time.Time) error       { return os.Chtimes(p, a, m) }
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Spec parameterises a fault plan. All rates are probabilities in [0,1],
// drawn independently per filesystem operation.
type Spec struct {
	// Seed drives the deterministic schedule; two plans with the same Spec
	// inject exactly the same faults at the same operations.
	Seed uint64
	// ErrRate is the probability an operation fails with ErrInjected.
	ErrRate float64
	// TornRate is the probability a file write persists only a prefix of
	// its buffer and then fails — the on-disk shape a power loss mid-write
	// leaves behind.
	TornRate float64
	// DelayRate is the probability an operation sleeps Delay first (a
	// latency spike on a healthy disk).
	DelayRate float64
	// Delay is the injected latency per DelayRate hit.
	Delay time.Duration
	// MaxOps, when positive, quiets the plan after that many operations:
	// faults stop and everything passes through — the "failure ends, system
	// recovers" half of a chaos schedule.
	MaxOps int
}

// ParseSpec parses the flag/env form of a Spec: comma-separated key=value
// pairs, e.g. "seed=42,err=0.1,torn=0.05,slow=0.02,delay=5ms,ops=4000".
// Keys: seed, err, torn, slow, delay, ops. Rates must be probabilities in
// [0,1] (NaN is not one), delay and ops non-negative; a bad value is an
// error naming its key.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	if strings.TrimSpace(s) == "" {
		return sp, fmt.Errorf("faultinject: empty spec")
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return sp, fmt.Errorf("faultinject: bad field %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			sp.Seed, err = strconv.ParseUint(v, 0, 64)
		case "err":
			sp.ErrRate, err = parseRate(v)
		case "torn":
			sp.TornRate, err = parseRate(v)
		case "slow":
			sp.DelayRate, err = parseRate(v)
		case "delay":
			if sp.Delay, err = time.ParseDuration(v); err == nil && sp.Delay < 0 {
				err = errors.New("negative duration")
			}
		case "ops":
			if sp.MaxOps, err = strconv.Atoi(v); err == nil && sp.MaxOps < 0 {
				err = errors.New("negative count")
			}
		default:
			return sp, fmt.Errorf("faultinject: unknown key %q", k)
		}
		if err != nil {
			return sp, fmt.Errorf("faultinject: %s=%q: %w", k, v, err)
		}
	}
	return sp, nil
}

func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(r >= 0 && r <= 1) { // NaN too
		return 0, fmt.Errorf("rate %v outside [0,1]", r)
	}
	return r, nil
}

// String renders the spec in its ParseSpec form.
func (s Spec) String() string {
	return fmt.Sprintf("seed=%d,err=%g,torn=%g,slow=%g,delay=%s,ops=%d",
		s.Seed, s.ErrRate, s.TornRate, s.DelayRate, s.Delay, s.MaxOps)
}

// Stats are a plan's cumulative injection counters.
type Stats struct {
	Ops    uint64 // operations that consulted the plan
	Errors uint64 // operations failed with ErrInjected
	Torn   uint64 // writes torn (prefix persisted, then failed)
	Delays uint64 // operations delayed by a latency spike
}

// Injected is the total faulted operations (errors + torn writes).
func (s Stats) Injected() uint64 { return s.Errors + s.Torn }

// Plan is one live fault schedule. Safe for concurrent use; concurrent
// operations serialise on the plan, each consuming a fixed number of draws,
// so the schedule depends only on the operation order.
type Plan struct {
	spec  Spec
	mu    sync.Mutex
	state uint64
	stats Stats
}

// New builds a plan from a spec.
func New(spec Spec) *Plan {
	return &Plan{spec: spec, state: spec.Seed}
}

// Spec returns the plan's parameters.
func (p *Plan) Spec() Spec { return p.spec }

// Stats returns the cumulative injection counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Wrap returns fs with this plan's faults injected into its steady-state
// operations.
func (p *Plan) Wrap(fs FS) FS { return &injectFS{fs: fs, plan: p} }

// next advances the splitmix64 stream; callers hold mu.
func (p *Plan) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// chance draws one uniform variate; callers hold mu.
func (p *Plan) chance(rate float64) bool {
	u := float64(p.next()>>11) / (1 << 53)
	return rate > 0 && u < rate
}

type verdict int

const (
	vOK verdict = iota
	vErr
	vTorn
	vDelay
)

// verdict decides one operation's fate. Every call draws the same three
// variates in the same order regardless of rates or the write flag, so the
// schedule position of every later operation is independent of which faults
// fired before it.
func (p *Plan) verdict(write bool) (verdict, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Ops++
	quiet := p.spec.MaxOps > 0 && p.stats.Ops > uint64(p.spec.MaxOps)
	delay := p.chance(p.spec.DelayRate)
	torn := p.chance(p.spec.TornRate) && write
	fail := p.chance(p.spec.ErrRate)
	if quiet {
		return vOK, 0
	}
	switch {
	case torn:
		p.stats.Torn++
		return vTorn, 0
	case fail:
		p.stats.Errors++
		return vErr, 0
	case delay:
		p.stats.Delays++
		return vDelay, p.spec.Delay
	}
	return vOK, 0
}

// injected wraps ErrInjected with the operation and path for diagnostics.
func injected(op, path string) error {
	return fmt.Errorf("%s %s: %w", op, path, ErrInjected)
}

// injectFS injects a plan's faults into a wrapped FS. Boot-path operations
// (MkdirAll, ReadDir) pass through untouched.
type injectFS struct {
	fs   FS
	plan *Plan
}

// op consults the plan for one non-write operation, sleeping out any
// injected latency itself.
func (i *injectFS) op(name, path string) error {
	v, d := i.plan.verdict(false)
	switch v {
	case vErr:
		return injected(name, path)
	case vDelay:
		time.Sleep(d)
	}
	return nil
}

func (i *injectFS) MkdirAll(path string, perm os.FileMode) error { return i.fs.MkdirAll(path, perm) }
func (i *injectFS) ReadDir(path string) ([]os.DirEntry, error)   { return i.fs.ReadDir(path) }

func (i *injectFS) ReadFile(path string) ([]byte, error) {
	if err := i.op("read", path); err != nil {
		return nil, err
	}
	return i.fs.ReadFile(path)
}

func (i *injectFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if err := i.op("open", path); err != nil {
		return nil, err
	}
	f, err := i.fs.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: f, plan: i.plan, path: path}, nil
}

func (i *injectFS) Rename(oldpath, newpath string) error {
	if err := i.op("rename", newpath); err != nil {
		return err
	}
	return i.fs.Rename(oldpath, newpath)
}

func (i *injectFS) Remove(path string) error {
	if err := i.op("remove", path); err != nil {
		return err
	}
	return i.fs.Remove(path)
}

func (i *injectFS) Chtimes(path string, atime, mtime time.Time) error {
	if err := i.op("chtimes", path); err != nil {
		return err
	}
	return i.fs.Chtimes(path, atime, mtime)
}

func (i *injectFS) SyncDir(path string) error {
	if err := i.op("syncdir", path); err != nil {
		return err
	}
	return i.fs.SyncDir(path)
}

// injectFile injects write-path faults, including torn writes: a torn
// verdict persists half the buffer and then fails, leaving exactly the
// on-disk shape an interrupted write would.
type injectFile struct {
	f    File
	plan *Plan
	path string
}

func (fl *injectFile) Write(p []byte) (int, error) {
	v, d := fl.plan.verdict(true)
	switch v {
	case vErr:
		return 0, injected("write", fl.path)
	case vTorn:
		n := len(p) / 2
		if n > 0 {
			fl.f.Write(p[:n])
		}
		return n, injected("torn write", fl.path)
	case vDelay:
		time.Sleep(d)
	}
	return fl.f.Write(p)
}

func (fl *injectFile) Sync() error {
	v, d := fl.plan.verdict(false)
	switch v {
	case vErr:
		return injected("sync", fl.path)
	case vDelay:
		time.Sleep(d)
	}
	return fl.f.Sync()
}

func (fl *injectFile) Close() error {
	// Close always reaches the wrapped file: leaking descriptors would make
	// the chaos harness fail in ways no real disk does.
	return fl.f.Close()
}
