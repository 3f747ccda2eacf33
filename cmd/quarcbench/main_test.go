package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"quarc/internal/service"
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

// TestNWayMulticastPanels: fig9 swept over three models with multicast traffic
// prints three NDJSON panels, each carrying every model's curve over every
// rate with multicasts measured at every point. A stray comma in -models is
// refused, not read as the default model.
func TestNWayMulticastPanels(t *testing.T) {
	out := quarcbench(t, "-experiment", "fig9", "-fast", "-json",
		"-models", "quarc,spidergon,ring", "-mcast-frac", "0.1", "-mcast-size", "4")
	var panels []service.PanelResultJSON
	for dec := json.NewDecoder(strings.NewReader(out)); ; {
		var p service.PanelResultJSON
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		panels = append(panels, p)
	}
	if len(panels) != 3 {
		t.Fatalf("%d panels, want 3", len(panels))
	}
	for _, p := range panels {
		if want := []string{"quarc", "spidergon", "ring"}; !slices.Equal(p.Models, want) {
			t.Fatalf("models %v, want %v", p.Models, want)
		}
		for _, m := range p.Models {
			curve := p.Curves[m]
			if len(curve) != len(p.Rates) {
				t.Errorf("%s: %d points over %d rates", m, len(curve), len(p.Rates))
			}
			for _, pt := range curve {
				if pt.McastCount == 0 {
					t.Errorf("%s at rate %g: no multicasts", m, pt.Rate)
				}
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig9", "-fast", "-models", "quarc,,spidergon"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-models quarc,,spidergon: exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "empty model name") {
		t.Fatalf("stderr %q", stderr.String())
	}
}
