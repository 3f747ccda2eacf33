package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		[]byte(`{"journal":"quarc-job-v1","id":"j000001","kind":"run"}`),
		[]byte(`{"type":"state","state":"queued"}`),
		[]byte(`{"type":"point","done":1,"total":2}`),
		[]byte(`{"type":"state","state":"done"}`),
	}
	for _, line := range want {
		if err := j.Append("j000001", line); err != nil {
			t.Fatal(err)
		}
	}
	j.CloseJob("j000001")
	got, err := j.Replay("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %q\nwant %q", got, want)
	}

	ids, err := j.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"j000001"}) {
		t.Fatalf("List = %v", ids)
	}
	j.Remove("j000001")
	if lines, err := j.Replay("j000001"); err != nil || lines != nil {
		t.Fatalf("after Remove: %v %v", lines, err)
	}
}

func TestJournalRejectsBadInput(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("../evil", []byte(`{}`)); err == nil {
		t.Error("path-traversal id accepted")
	}
	if err := j.Append("ok", []byte("{}\n{}")); err == nil {
		t.Error("embedded newline accepted")
	}
}

// Crash-consistency property: truncating a journal at ANY byte offset must
// replay the longest prefix of complete lines — every replayed line equals
// the original at its index, and the count is exactly the number of fully
// written lines before the cut.
func TestJournalTruncationReplaysLongestValidPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20090523))
	var lines [][]byte
	for i := 0; i < 12; i++ {
		pad := bytes.Repeat([]byte("p"), rng.Intn(40))
		lines = append(lines, []byte(fmt.Sprintf(`{"type":"point","done":%d,"pad":%q}`, i, pad)))
	}
	for _, line := range lines {
		if err := j.Append("j000042", line); err != nil {
			t.Fatal(err)
		}
	}
	j.CloseAll()
	path := filepath.Join(dir, "j000042"+journalSuffix)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// lineEnds[k] = byte offset just past line k's newline.
	var lineEnds []int
	for i, b := range full {
		if b == '\n' {
			lineEnds = append(lineEnds, i+1)
		}
	}
	if len(lineEnds) != len(lines) {
		t.Fatalf("%d newlines for %d lines", len(lineEnds), len(lines))
	}

	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantComplete := 0
		for _, end := range lineEnds {
			if end <= cut {
				wantComplete++
			}
		}
		got, err := j.Replay("j000042")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != wantComplete {
			t.Fatalf("cut %d: replayed %d lines, want %d", cut, len(got), wantComplete)
		}
		for k, line := range got {
			if !bytes.Equal(line, lines[k]) {
				t.Fatalf("cut %d: line %d = %q, want %q", cut, k, line, lines[k])
			}
		}
	}
}

// FuzzJournalReplay feeds Replay arbitrary file contents. A readable file
// never panics or errors, and what comes back is a prefix of the file: valid
// JSON lines without newlines which, each followed by '\n', spell out the
// file's first bytes.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n{\"b\":2}\ngarbage-not-json\n{\"c\":3}\n"))
	f.Add([]byte("{\"journal\":\"quarc-job-v1\",\"id\":\"j000001\"}\n{\"type\":\"state\",\"state\":\"queued\"}\n{\"type\""))
	f.Add([]byte("\n\n[]\n\"x\"\n 1 \r\n"))
	dir := f.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "j000001"+journalSuffix)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lines, err := j.Replay("j000001")
		if err != nil {
			t.Fatalf("readable journal: %v", err)
		}
		var prefix []byte
		for i, line := range lines {
			if !json.Valid(line) || bytes.IndexByte(line, '\n') >= 0 {
				t.Fatalf("line %d %q is not one JSON document", i, line)
			}
			prefix = append(append(prefix, line...), '\n')
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("replayed lines %q are not a prefix of %q", lines, data)
		}
	})
}

// A corrupt line mid-journal ends the replayable prefix; nothing after it
// is trusted.
func TestJournalCorruptLineEndsPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "j000007"+journalSuffix)
	content := "{\"a\":1}\n{\"b\":2}\ngarbage-not-json\n{\"c\":3}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := j.Replay("j000007")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %q, want %q", got, want)
	}
}
