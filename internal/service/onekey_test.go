package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// keyGroup lists alternative spellings of one request, each a JSON patch
// merged over its kind's base body ("" is the base itself). Every spelling
// must parse to one cache key. For explore, depth is the buffer depth every
// lattice point of the answer must run at: the depth the key hashes.
type keyGroup struct {
	name      string
	depth     int
	spellings []string
}

// oneKeyTables are the spelling groups of each kind, at tiny budgets.
var oneKeyTables = []struct {
	kind, route, base string
	groups            []keyGroup
}{
	{"run", "/v1/runs", `{"n":8,"rate":0.002,"warmup":100,"measure":400,"drain":4000,"seed":7}`, []keyGroup{
		{"defaults omitted or spelled out", 0, []string{"",
			`{"topo":"quarc"}`, `{"topo":"QUARC"}`, `{"topo":""}`,
			`{"msglen":0}`, `{"msglen":16}`, `{"depth":4}`,
			`{"pattern":""}`, `{"pattern":"uniform"}`, `{"pattern":"Uniform"}`,
			`{"replicates":0}`, `{"replicates":1}`,
			`{"workers":3}`, `{"step_workers":2}`, `{"deadline_ms":600000}`}},
		{"topo case", 0, []string{`{"topo":"spidergon"}`, `{"topo":"Spidergon"}`}},
		{"replicate pool", 0, []string{`{"replicates":2}`, `{"replicates":2,"workers":1}`, `{"replicates":2,"workers":2}`}},
	}},
	{"panel", "/v1/panels", `{"n":8,"rates":[0.002],"opts":{"warmup":100,"measure":400,"drain":4000,"seed":7}}`, []keyGroup{
		{"defaults omitted or spelled out", 0, []string{"",
			`{"msglen":0}`, `{"msglen":16}`, `{"opts":{"depth":4}}`,
			`{"pattern":""}`, `{"pattern":"uniform"}`,
			`{"opts":{"replicates":0}}`, `{"opts":{"replicates":1}}`,
			`{"opts":{"workers":3}}`, `{"opts":{"step_workers":2}}`, `{"deadline_ms":600000}`}},
		{"model case", 0, []string{`{"models":["quarc","ring"]}`, `{"models":["QUARC","Ring"]}`}},
	}},
	{"explore", "/v1/explore", `{"models":["quarc"],"ns":[8],"rates":[0.002],"opts":{"warmup":100,"measure":400,"drain":4000,"seed":7}}`, []keyGroup{
		{"defaults omitted or spelled out", 4, []string{"",
			`{"models":["QUARC"]}`, `{"msglen":0}`, `{"msglen":16}`,
			`{"cost_width":0}`, `{"cost_width":32}`,
			`{"pattern":""}`, `{"pattern":"uniform"}`,
			`{"opts":{"replicates":0}}`, `{"opts":{"replicates":1}}`,
			`{"opts":{"workers":3}}`, `{"opts":{"step_workers":2}}`, `{"deadline_ms":600000}`}},
		{"depth axis omitted, [4] or [0]", 4, []string{"",
			`{"opts":{"depth":4}}`, `{"depths":[4]}`, `{"depths":[0]}`,
			`{"depths":[4],"opts":{"depth":8}}`, `{"depths":[0],"opts":{"depth":8}}`}},
		{"depth axis at opts.depth 8", 8, []string{`{"opts":{"depth":8}}`,
			`{"depths":[8],"opts":{"depth":8}}`, `{"depths":[8]}`}},
		{"mcast axis omitted or zero", 4, []string{"", `{"mcast":[{"frac":0,"size":0}]}`}},
	}},
}

// One cache key is one answer. Two spellings the parser maps to one key must
// get byte-identical results, or the cache serves whichever spelling arrived
// first to both. Each spelling is answered by its own fresh server, so the
// cache cannot hide a difference.
func TestOneKeyOneAnswer(t *testing.T) {
	for _, tab := range oneKeyTables {
		t.Run(tab.kind, func(t *testing.T) {
			type answer struct {
				body   string
				result []byte
			}
			byKey := map[string]answer{}
			for _, g := range tab.groups {
				var groupKey string
				for i, patch := range g.spellings {
					body := patched(t, tab.base, patch)
					key, _, _, err := parseKind(tab.kind, body)
					if err != nil {
						t.Fatalf("%s: %s refused: %v", g.name, body, err)
					}
					if i == 0 {
						groupKey = key
					} else if key != groupKey {
						t.Errorf("%s: %s forks the key of %s", g.name, body, patched(t, tab.base, g.spellings[0]))
					}
					result := answerOf(t, tab.route, body)
					if prev, ok := byKey[key]; !ok {
						byKey[key] = answer{string(body), result}
					} else if !bytes.Equal(prev.result, result) {
						got, was := firstDiff(result, prev.result)
						t.Errorf("%s: %s shares the key of %s but answers differently: ...%s... vs ...%s...",
							g.name, body, prev.body, got, was)
					}
					if tab.kind != "explore" {
						continue
					}
					var out ExploreResultJSON
					if err := json.Unmarshal(result, &out); err != nil {
						t.Fatal(err)
					}
					for _, p := range out.Points {
						if p.Depth != g.depth {
							t.Errorf("%s: %s ran a point at depth %d, want %d", g.name, body, p.Depth, g.depth)
						}
					}
				}
			}
		})
	}
}

// firstDiff quotes a and b around the first byte where they differ.
func firstDiff(a, b []byte) (string, string) {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	from := max(i-24, 0)
	quote := func(s []byte) string { return string(s[from:min(len(s), i+24)]) }
	return quote(a), quote(b)
}

// patched merges the JSON object patch over base.
func patched(t *testing.T, base, patch string) []byte {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal([]byte(base), &body); err != nil {
		t.Fatal(err)
	}
	if patch != "" {
		var m map[string]any
		if err := json.Unmarshal([]byte(patch), &m); err != nil {
			t.Fatal(err)
		}
		overlay(body, m)
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// answerOf submits body to a fresh in-memory server and returns its result.
func answerOf(t *testing.T, route string, body []byte) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+route+"?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("%s %s: job %s (%s)", route, body, job.State, job.Error)
	}
	return job.Result
}
