// Package store provides quarcd's durability layer: a content-addressed,
// disk-backed result store bounded in bytes with LRU-by-access-time
// eviction, and an append-only NDJSON event journal per job. Both are
// crash-safe by construction — results become visible only through an
// atomic write-then-rename (with the parent directory fsynced after the
// rename, so the commit survives power loss, not just process death), and
// journal replay stops at the first incomplete or corrupt line — so a
// daemon killed at any instant reboots into a consistent state: every
// durable result is byte-identical to the original computation, and every
// journal replays the longest valid prefix of the events that were streamed
// before the crash.
//
// All filesystem access goes through a faultinject.FS, so chaos tests and
// quarcd's -chaos flag can inject deterministic I/O errors, torn writes and
// latency spikes at exactly this boundary; production passes the zero-cost
// faultinject.OS pass-through.
package store

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"quarc/internal/faultinject"
)

// keyPattern is the only accepted result key shape: the lower-case hex
// SHA-256 the service layer content-addresses requests with. Anything else
// in the store directory is foreign and is left alone.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

const (
	resultSuffix = ".json"
	tmpSuffix    = ".json.tmp"
)

// ErrNotFound reports a key with no resident entry — a miss, as opposed to
// an I/O failure reading an entry that exists. Callers running a circuit
// breaker over the store must treat only non-ErrNotFound errors as disk
// failures.
var ErrNotFound = errors.New("store: entry not found")

// Store is the disk-backed result store. All methods are safe for
// concurrent use. Entries are plain files named <key>.json under a single
// directory; recency is tracked in memory and mirrored to the files'
// modification times (best effort) so the LRU order survives restarts.
type Store struct {
	dir      string
	maxBytes int64
	fs       faultinject.FS

	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry struct {
	key  string
	size int64
}

// Open is OpenFS over the plain os filesystem.
func Open(dir string, maxBytes int64) (*Store, error) {
	return OpenFS(dir, maxBytes, faultinject.OS{})
}

// OpenFS scans dir (creating it if needed) and builds the store over whatever
// valid entries it holds, performing all I/O through fs. The scan is
// corruption tolerant: the <key>.json.tmp leftovers of a crashed Put are
// deleted, files that do not look like result entries are ignored, and
// anything over the byte budget is evicted oldest-access-first before OpenFS
// returns.
func OpenFS(dir string, maxBytes int64, fs faultinject.FS) (*Store, error) {
	if maxBytes < 1 {
		maxBytes = 1
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		fs:       fs,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
	des, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	for _, de := range des {
		name := de.Name()
		if !de.Type().IsRegular() {
			continue
		}
		if key, ok := strings.CutSuffix(name, tmpSuffix); ok && keyPattern.MatchString(key) {
			// A Put that crashed before its rename: the entry never became
			// visible, so the remnant is garbage by definition.
			fs.Remove(filepath.Join(dir, name))
			continue
		}
		key, ok := keyOf(name)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{key: key, size: info.Size(), mtime: info.ModTime()})
	}
	// Oldest access first, so pushing to the list front leaves the most
	// recently used entry at the front and eviction starts at the back.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found {
		s.items[f.key] = s.ll.PushFront(&entry{key: f.key, size: f.size})
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictOverBudgetLocked()
	s.mu.Unlock()
	return s, nil
}

// keyOf extracts the result key from a file name, rejecting anything that
// is not <64 hex chars>.json.
func keyOf(name string) (string, bool) {
	if len(name) != 64+len(resultSuffix) || name[64:] != resultSuffix {
		return "", false
	}
	key := name[:64]
	if !keyPattern.MatchString(key) {
		return "", false
	}
	return key, true
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+resultSuffix) }

// Get returns the payload stored under key, marking it most recently used.
// It is GetE without the miss/failure distinction.
func (s *Store) Get(key string) ([]byte, bool) {
	b, err := s.GetE(key)
	return b, err == nil
}

// GetE returns the payload stored under key, marking it most recently used.
// A missing key (or a file externally deleted or corrupted, which is dropped
// from the index rather than served) returns ErrNotFound; any other error is
// a disk I/O failure on an entry that still exists — the entry stays
// resident, so a transiently failing disk does not silently empty the store.
func (s *Store) GetE(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, ErrNotFound
	}
	b, err := s.fs.ReadFile(s.path(key))
	switch {
	case err != nil && os.IsNotExist(err):
		// The file vanished underneath the index (external deletion): drop
		// the entry and report a plain miss.
		s.dropLocked(el)
		s.misses++
		return nil, ErrNotFound
	case err != nil:
		s.misses++
		return nil, fmt.Errorf("store: read %s: %w", key, err)
	case !json.Valid(b):
		// External corruption: never serve it, and GC the file.
		s.dropLocked(el)
		s.fs.Remove(s.path(key))
		s.misses++
		return nil, ErrNotFound
	}
	s.hits++
	s.ll.MoveToFront(el)
	// Mirror recency to the file's mtime so the LRU order survives a
	// restart; purely best effort.
	now := time.Now()
	s.fs.Chtimes(s.path(key), now, now)
	return b, nil
}

// Put stores val under key with write-then-rename atomicity: a crash at any
// point leaves either the previous entry or the new one, never a torn file
// behind the key. After the rename the parent directory is fsynced, so the
// committed entry survives power loss, not just process death; a failure
// there is returned (durability is compromised) but the entry is already
// visible and stays indexed. Entries are evicted oldest-access-first until
// the store fits its byte budget again (the entry just written is never
// evicted, even if it alone exceeds the budget).
func (s *Store) Put(key string, val []byte) error {
	if !keyPattern.MatchString(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := filepath.Join(s.dir, key+tmpSuffix)
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if _, err := f.Write(val); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("store: sync %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := s.fs.Rename(tmp, s.path(key)); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("store: commit %s: %w", key, err)
	}
	// The rename made the entry visible; fsyncing the directory makes it
	// durable. Account for the entry either way — it exists and will be
	// served — and surface the sync failure to the caller.
	var syncErr error
	if err := s.fs.SyncDir(s.dir); err != nil {
		syncErr = fmt.Errorf("store: sync dir after %s: %w", key, err)
	}
	size := int64(len(val))
	if el, ok := s.items[key]; ok {
		s.bytes += size - el.Value.(*entry).size
		el.Value.(*entry).size = size
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&entry{key: key, size: size})
		s.bytes += size
	}
	s.evictOverBudgetLocked()
	return syncErr
}

// dropLocked removes an entry from the in-memory index only.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
}

// evictOverBudgetLocked deletes least-recently-accessed entries until the
// store fits its byte budget, always sparing the most recent entry.
func (s *Store) evictOverBudgetLocked() {
	for s.bytes > s.maxBytes && s.ll.Len() > 1 {
		oldest := s.ll.Back()
		key := oldest.Value.(*entry).key
		s.dropLocked(oldest)
		s.fs.Remove(s.path(key))
		s.evictions++
	}
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the total payload bytes resident on disk.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns the cumulative hit, miss and eviction counts.
func (s *Store) Stats() (hits, misses, evictions uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions
}
