package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fast-all.golden from this build's output")

const golden = "testdata/fast-all.golden"

// stripTimings drops the "(panel swept in …)" lines, the only wall-clock
// part of quarcbench's output.
func stripTimings(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "(panel swept in ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// quarcbench runs the command in-process and returns its timing-free stdout,
// failing the test unless it exits 0.
func quarcbench(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("quarcbench %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stripTimings(stdout.String())
}

// firstDiff describes the first line where got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestFastAllMatchesGolden: the whole catalogue at -fast prints exactly the
// committed golden text, at one worker and at four. The golden file was
// written by the build that still had one bespoke function per study, so
// this pins the table to that output byte for byte. Refresh it deliberately
// with go test -run TestFastAllMatchesGolden -update.
func TestFastAllMatchesGolden(t *testing.T) {
	if *update {
		out := quarcbench(t, "-fast", "-experiment", "all", "-workers", "1")
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		got := quarcbench(t, "-fast", "-experiment", "all", "-workers", workers)
		if got != string(want) {
			t.Errorf("-workers %s: output departs from %s at %s", workers, golden, firstDiff(got, string(want)))
		}
	}
}

// TestEveryNameSelectsItsSection: each -experiment name of the catalogue runs
// alone and prints its own section of the golden text.
func TestEveryNameSelectsItsSection(t *testing.T) {
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range catalogue() {
		for _, name := range e.names() {
			got := quarcbench(t, "-fast", "-experiment", name, "-workers", "3")
			if got == "" || !strings.Contains(string(want), got) {
				t.Errorf("-experiment %s printed text that is not a section of %s:\n%s", name, golden, got)
			}
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
