package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarc/internal/model"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// quarctrace runs the command in-process and returns its stdout, failing the
// test unless it exits 0.
func quarctrace(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("quarctrace %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestTracesMatchGolden: the quarc and spidergon traces match their golden
// files byte for byte; refresh them deliberately with -update.
func TestTracesMatchGolden(t *testing.T) {
	for _, c := range []struct{ topo, scenario string }{
		{"quarc", "unicast"}, {"quarc", "broadcast"}, {"quarc", "multicast"},
		{"spidergon", "unicast"}, {"spidergon", "broadcast"},
	} {
		path := filepath.Join("testdata", c.topo+"-"+c.scenario+".golden")
		got := quarctrace(t, "-topo", c.topo, "-scenario", c.scenario)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s %s departs from %s:\n%s", c.topo, c.scenario, path, got)
		}
	}
}

// TestEveryModelTraces: every registered model traces all three scenarios at
// its ExampleN, and each delivers the message's M flits once to every target.
func TestEveryModelTraces(t *testing.T) {
	const m = 4
	for _, mod := range model.All() {
		n := mod.ExampleN
		for _, c := range []struct {
			scenario string
			targets  int
		}{{"unicast", 1}, {"broadcast", n - 1}, {"multicast", len(mcastTargets)}} {
			out := quarctrace(t, "-topo", mod.Name, "-n", fmt.Sprint(n), "-scenario", c.scenario, "-m", fmt.Sprint(m))
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var fwd, delivered, dups int
			if _, err := fmt.Sscanf(lines[len(lines)-1], "flits forwarded: %d, delivered: %d, duplicates: %d",
				&fwd, &delivered, &dups); err != nil {
				t.Fatalf("%s %s: %v in %q", mod.Name, c.scenario, err, lines[len(lines)-1])
			}
			if dups != 0 || delivered != m*c.targets {
				t.Errorf("%s %s: delivered %d flits with %d duplicates, want %d and 0",
					mod.Name, c.scenario, delivered, dups, m*c.targets)
			}
		}
	}
}

// TestNodeFlagsChecked: node flags the scenario cannot use exit 2 with a
// message instead of panicking or wrapping around the ring.
func TestNodeFlagsChecked(t *testing.T) {
	for _, args := range [][]string{
		{"-src", "20"},
		{"-src", "-1"},
		{"-scenario", "unicast", "-dst", "0"},
		{"-scenario", "unicast", "-dst", "16"},
		{"-n", "8", "-scenario", "multicast"},
		{"-src", "2", "-scenario", "multicast"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and a message", args, code, stdout.String(), stderr.String())
		}
	}
	// -dst only matters to a unicast.
	quarctrace(t, "-src", "5", "-scenario", "broadcast")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-topo", "hypercube"}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), `unknown model "hypercube"`) {
		t.Errorf("unknown model: exit %d, stderr %q", code, stderr.String())
	}
}
