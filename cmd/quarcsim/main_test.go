package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestOutputMatchesGolden: text and -json output, replicated and bursty runs
// included, match their golden files byte for byte; refresh them deliberately
// with -update.
func TestOutputMatchesGolden(t *testing.T) {
	short := []string{"-warmup", "300", "-cycles", "2000", "-drain", "8000"}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"json", append([]string{"-json"}, short...)},
		{"ring-mcast", append([]string{"-topo", "ring", "-mcast-frac", "0.1", "-mcast-size", "4", "-replicates", "3"}, short...)},
		{"bursty", append([]string{"-burst-on", "40", "-burst-off", "120", "-json"}, short...)},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", c.name, code, stderr.String())
		}
		path := filepath.Join("testdata", c.name+".golden")
		if *update {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%s departs from %s:\n got: %s\nwant: %s", c.name, path, got, want)
		}
	}
}

// TestRequestsOutsideTheDomainExit2: what POST /v1/runs refuses, quarcsim
// refuses before simulating, with the daemon's message.
func TestRequestsOutsideTheDomainExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-rate", "5"}, "rate 5 outside [0,1]"},
		{[]string{"-rate", "NaN", "-warmup", "100", "-cycles", "200", "-drain", "200"}, "traffic: rate NaN outside [0,1]"},
		{[]string{"-topo", "nosuch"}, `unknown model "nosuch"`},
		{[]string{"-n", "7"}, "7 nodes"},
		{[]string{"-replicates", "300"}, "replicates 300 outside [0,256]"},
		{[]string{"-cycles", "600000000"}, "exceeds the limit"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q", c.args, code, stdout.String(), stderr.String(), c.msg)
		}
	}
}
