package service

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// serve sends one request straight to the server's handler and returns the
// response status and body.
func serve(t *testing.T, svc *Server, method, target, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// counters scrapes the server's /metrics into exposition name -> sample, the
// shape the bench and any scraper read.
func counters(t *testing.T, svc *Server) map[string]float64 {
	t.Helper()
	code, body := serve(t, svc, http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// timeSamples are the series whose sample values depend on the wall clock.
var timeSamples = []string{"quarcd_uptime_seconds ", "quarcd_cycles_per_second "}

// The full /metrics exposition after a fixed sequential script — a cold run,
// its hot repeat, a refused body and a two-point explore — is byte-identical
// to testdata/metrics.golden, with the wall-clock samples masked: every
// series' name, HELP text, type, order and sample format. Refresh a
// deliberate change with -update.
func TestMetricsGolden(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const run = `{"n":8,"msglen":4,"rate":0.002,"warmup":100,"measure":300,"drain":3000,"seed":77}`
	for _, step := range []struct {
		target, body string
		status       int
	}{
		{"/v1/runs?wait=1", run, http.StatusOK},
		{"/v1/runs?wait=1", run, http.StatusOK},
		{"/v1/runs?wait=1", `{"n":7,"rate":0.002}`, http.StatusBadRequest},
		{"/v1/explore?wait=1", `{"models":["quarc"],"ns":[8],"rates":[0.002,0.004],"msglen":4,` +
			`"opts":{"warmup":100,"measure":400,"drain":4000,"seed":7}}`, http.StatusOK},
	} {
		if code, out := serve(t, svc, http.MethodPost, step.target, step.body); code != step.status {
			t.Fatalf("POST %s %s: %d %s, want %d", step.target, step.body, code, out, step.status)
		}
	}
	code, got := serve(t, svc, http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	lines := strings.SplitAfter(got, "\n")
	for i, line := range lines {
		for _, p := range timeSamples {
			if strings.HasPrefix(line, p) {
				lines[i] = p + "<masked>\n"
			}
		}
	}
	got = strings.Join(lines, "")

	path := filepath.Join("testdata", "metrics.golden")
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
		t.Errorf("/metrics departs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// Every series a test reads by name is one the server serves: a misspelt
// name reads as 0 and would pass a nothing-happened assertion vacuously.
func TestTestsReadServedSeries(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	served := counters(t, svc)
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	quoted := regexp.MustCompile(`"(quarcd_[a-z0-9_]+)"`)
	reads := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quoted.FindAllSubmatch(src, -1) {
			reads++
			if _, ok := served[string(m[1])]; !ok {
				t.Errorf("%s reads %s, which /metrics does not serve", f, m[1])
			}
		}
	}
	if reads == 0 {
		t.Fatal("no test reads a series by name")
	}
}
