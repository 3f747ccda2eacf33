package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestOutputMatchesGolden: the front table and the -csv - listing of a small
// lattice (depth and multicast axes included) match the golden file byte for
// byte; refresh it deliberately with -update.
func TestOutputMatchesGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-fast", "-models", "quarc,spidergon,mesh", "-ns", "16", "-rates", "0.005,0.02",
		"-depths", "2,4", "-mcast", "0.1:4", "-csv", "-"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", "fast-csv.golden")
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
		t.Errorf("output departs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestRequestsOutsideTheDomainExit2: what POST /v1/explore refuses,
// quarcexplore refuses before simulating a point, with the daemon's message.
func TestRequestsOutsideTheDomainExit2(t *testing.T) {
	rates := func(k int) string {
		r := make([]string, k)
		for i := range r {
			r[i] = fmt.Sprintf("0.%04d", i+1)
		}
		return strings.Join(r, ",")
	}
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-ns", "8192"}, "n 8192 exceeds the limit 4096"},
		{[]string{"-msglen", "5000"}, "msglen 5000 exceeds the limit 4096"},
		{[]string{"-width", "4611686018427387904"}, "cost_width 4611686018427387904 exceeds the limit 4096"},
		{[]string{"-width", "9223372036854775807"}, "cost_width 9223372036854775807 exceeds the limit 4096"},
		{[]string{"-models", "quarc", "-rates", rates(2049)}, "lattice expands to 2049 points, exceeding the limit 2048"},
		{[]string{"-models", "quarc", "-rates", rates(300), "-replicates", "256"}, "exceeds the job limit"},
		{[]string{"-models", "quarc,,mesh"}, "empty model name"},
		{[]string{"-models", "hypercube"}, `unknown model "hypercube"`},
		{[]string{"-ns", "16,,32"}, "invalid value"},
		{[]string{"-mcast", "0.1"}, "is not frac:size"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 ||
			!strings.Contains(stderr.String(), c.msg) || strings.Contains(stderr.String(), "done:") {
			t.Errorf("%.60v: exit %d, stdout %q, stderr %.200q; want exit 2 and %q before any point", c.args, code, stdout.String(), stderr.String(), c.msg)
		}
	}
}
