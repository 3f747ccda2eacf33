package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testKey derives a distinct valid store key.
func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func payload(i, size int) []byte {
	body := bytes.Repeat([]byte("x"), size)
	return []byte(fmt.Sprintf(`{"i":%d,"pad":%q}`, i, body))
}

func TestStoreRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	val := payload(1, 10)
	if err := s.Put(k, val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Bytes() != int64(len(val)) || s.Len() != 1 {
		t.Fatalf("bytes=%d len=%d", s.Bytes(), s.Len())
	}

	// A fresh Open over the same directory serves the identical bytes.
	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := s2.Get(k)
	if !ok || !bytes.Equal(got2, val) {
		t.Fatalf("reopened Get = %q, %v", got2, ok)
	}
	if _, ok := s2.Get(testKey(2)); ok {
		t.Fatal("absent key reported present")
	}
}

func TestStoreInvalidKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "abc", "../../etc/passwd", testKey(1) + "ff"} {
		if err := s.Put(k, []byte("{}")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
	}
}

// Eviction is byte-bounded and least-recently-accessed-first, with access
// (not insertion) defining recency.
func TestStoreByteBoundedLRUEviction(t *testing.T) {
	dir := t.TempDir()
	a, b, c := testKey(1), testKey(2), testKey(3)
	va, vb, vc := payload(1, 20), payload(2, 20), payload(3, 20)
	budget := int64(len(va) + len(vb))
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(a, va); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, vb); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(a); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	if err := s.Put(c, vc); err != nil { // over budget: evicts b, not a
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := s.Get(a); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := s.Get(c); !ok {
		t.Fatal("c missing")
	}
	if s.Bytes() > budget {
		t.Fatalf("store over budget: %d > %d", s.Bytes(), budget)
	}
	if _, _, ev := s.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if _, err := os.Stat(filepath.Join(dir, b+resultSuffix)); !os.IsNotExist(err) {
		t.Fatal("evicted entry still on disk")
	}
}

// Open must evict down to the budget when the directory holds more than the
// configured bytes (e.g. the budget was lowered between boots), oldest
// access first.
func TestStoreOpenEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := testKey(1), testKey(2)
	if err := s.Put(old, payload(1, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fresh, payload(2, 50)); err != nil {
		t.Fatal(err)
	}
	// Make the access-time gap robust to filesystem mtime granularity.
	past := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, old+resultSuffix), past, past)

	s2, err := Open(dir, int64(len(payload(2, 50))))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(old); ok {
		t.Fatal("oldest entry survived a reopen under a smaller budget")
	}
	if _, ok := s2.Get(fresh); !ok {
		t.Fatal("newest entry evicted at reopen")
	}
}

// A half-written result file (a Put that never reached its rename) must be
// skipped and garbage collected by the startup scan — the crash-consistency
// contract of write-then-rename.
func TestStoreHalfWrittenFileGCdAtStartup(t *testing.T) {
	dir := t.TempDir()
	k := testKey(1)
	tmp := filepath.Join(dir, k+tmpSuffix)
	if err := os.WriteFile(tmp, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("half-written entry served")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("half-written entry indexed: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("half-written file not garbage collected")
	}
}

// Foreign files in the store directory are ignored, and an entry whose
// contents were corrupted externally is dropped instead of served.
func TestStoreCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a result"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("foreign file indexed: len=%d", s.Len())
	}

	k := testKey(1)
	if err := s.Put(k, payload(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry behind the store's back.
	if err := os.WriteFile(filepath.Join(dir, k+resultSuffix), []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry resurrected")
	}
	if s.Len() != 0 {
		t.Fatalf("corrupt entry still indexed: len=%d", s.Len())
	}
}

func TestStoreOverwriteAdjustsBytes(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	small, big := payload(1, 5), payload(1, 500)
	if err := s.Put(k, small); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, big); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != int64(len(big)) || s.Len() != 1 {
		t.Fatalf("bytes=%d len=%d after overwrite, want %d and 1", s.Bytes(), s.Len(), len(big))
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, big) {
		t.Fatalf("overwrite lost: %q %v", got, ok)
	}
}

// TestStoreOpenRemovesOnlyItsOwnRemnants: the startup scan deletes what a
// crashed Put leaves, <key>.json.tmp, and nothing else; other .tmp files in
// the directory are foreign and survive byte-identical.
func TestStoreOpenRemovesOnlyItsOwnRemnants(t *testing.T) {
	dir := t.TempDir()
	foreign := map[string][]byte{"notes.tmp": []byte("keep me"), "xyz.json.tmp": []byte(`{"x":1}`)}
	for name, b := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remnant := filepath.Join(dir, testKey(1)+tmpSuffix)
	if err := os.WriteFile(remnant, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	for name, want := range foreign {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: read %q, %v; want %q kept", name, got, err, want)
		}
	}
	if _, err := os.Stat(remnant); !os.IsNotExist(err) {
		t.Errorf("the crashed Put's remnant survived the scan: %v", err)
	}
}

// FuzzStoreOpen runs the startup scan over arbitrary directory contents:
// names is a newline-separated list of file names (those no directory can
// hold are skipped) and contents their payloads, separated by 0xff bytes and
// reused cyclically. OpenFS must succeed; exactly the store's own remnants
// (<key>.json.tmp) must be gone and every other file byte-identical; Len must
// count the <key>.json entries; and Get must never return bytes that are not
// valid JSON, returning a valid entry's exactly.
func FuzzStoreOpen(f *testing.F) {
	k1, k2 := testKey(1), testKey(2)
	f.Add(k1+".json\n"+k2+".json.tmp\nnotes.tmp\nxyz.json.tmp", []byte("{\"a\":1}\xff{\"torn\":\xffkeep\xff{}"))
	f.Add(k1+".json\n"+k2+".json\n"+k1+".JSON\n"+k2[:63]+".json.tmp", []byte("not json\xff[1,2]"))
	f.Add(".tmp\n.json.tmp\n"+k1+".json.tmp.tmp\n"+k1+"x.json.tmp", []byte(""))
	f.Fuzz(func(t *testing.T, names string, contents []byte) {
		dir := t.TempDir()
		payloads := bytes.Split(contents, []byte{0xff})
		files := map[string][]byte{}
		for i, name := range strings.Split(names, "\n") {
			if name == "" || name == "." || name == ".." || len(name) > 200 || strings.ContainsAny(name, "/\x00") {
				continue
			}
			b := payloads[i%len(payloads)]
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Skipf("unwritable name %q: %v", name, err)
			}
			files[name] = b
		}
		s, err := Open(dir, 1<<30)
		if err != nil {
			t.Fatalf("OpenFS: %v", err)
		}
		entries := map[string][]byte{}
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if key, ok := strings.CutSuffix(name, tmpSuffix); ok && keyPattern.MatchString(key) {
				if !os.IsNotExist(err) {
					t.Errorf("%s: the store's remnant survived the scan", name)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: read %q, %v; want %q kept", name, got, err, want)
			}
			if key, ok := keyOf(name); ok {
				entries[key] = want
			}
		}
		if s.Len() != len(entries) {
			t.Errorf("Len %d, want the %d <key>.json files", s.Len(), len(entries))
		}
		for key, want := range entries {
			got, ok := s.Get(key)
			if ok && !json.Valid(got) {
				t.Errorf("%s: Get returned invalid JSON %q", key, got)
			}
			if json.Valid(want) && (!ok || !bytes.Equal(got, want)) {
				t.Errorf("%s: Get returned %q, %v; want %q", key, got, ok, want)
			}
		}
	})
}
