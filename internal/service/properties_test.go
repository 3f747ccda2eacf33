package service

import (
	"encoding/json"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// fate is what changing one wire field may do to the cache key its kind's
// parser returns.
type fate int

const (
	keyed    fate = iota // the key must change
	execOnly             // the key must not change: wall-clock only
	rejected             // the parser must refuse the change
)

// fieldCase moves one wire field. change is merged over the kind's base body;
// with, when set, is merged under it on both sides — for a field that only
// means something beside another (hotspot_bias under the hotspot pattern) or
// one of a pair (burst_mean_on/off, mcast_frac/size), so that each field of
// the pair is moved on its own.
type fieldCase struct {
	fate         fate
	change, with string
}

const (
	hotspot = `{"pattern":"hotspot","hotspot_bias":0.3}`
	burst   = `{"burst_mean_on":40,"burst_mean_off":120}`
	mcast   = `{"mcast_frac":0.1,"mcast_size":3}`
)

// fateTables gives every exported field of every wire request type — nested
// SweepOpts fields as "opts.<name>" — its cache-key fate.
var fateTables = []struct {
	kind  string
	typ   reflect.Type
	base  string
	cases map[string]fieldCase
}{
	{"run", reflect.TypeOf(RunRequest{}),
		`{"n":16,"rate":0.01,"seed":1,"warmup":100,"measure":400,"drain":4000}`,
		map[string]fieldCase{
			"topo":           {keyed, `{"topo":"spidergon"}`, ""},
			"n":              {keyed, `{"n":32}`, ""},
			"msglen":         {keyed, `{"msglen":8}`, ""},
			"beta":           {keyed, `{"beta":0.1}`, ""},
			"rate":           {keyed, `{"rate":0.02}`, ""},
			"pattern":        {keyed, `{"pattern":"antipodal"}`, ""},
			"hotspot_bias":   {keyed, `{"hotspot_bias":0.6}`, hotspot},
			"burst_mean_on":  {keyed, `{"burst_mean_on":60}`, burst},
			"burst_mean_off": {keyed, `{"burst_mean_off":200}`, burst},
			"mcast_frac":     {keyed, `{"mcast_frac":0.2}`, mcast},
			"mcast_size":     {keyed, `{"mcast_size":4}`, mcast},
			"depth":          {keyed, `{"depth":8}`, ""},
			"warmup":         {keyed, `{"warmup":200}`, ""},
			"measure":        {keyed, `{"measure":800}`, ""},
			"drain":          {keyed, `{"drain":8000}`, ""},
			"seed":           {keyed, `{"seed":2}`, ""},
			"replicates":     {keyed, `{"replicates":3}`, ""},
			"workers":        {execOnly, `{"workers":4}`, ""},
			"step_workers":   {execOnly, `{"step_workers":4}`, ""},
			"deadline_ms":    {execOnly, `{"deadline_ms":500}`, ""},
		}},
	{"panel", reflect.TypeOf(PanelRequest{}),
		`{"n":16,"rates":[0.01],"opts":{"warmup":100,"measure":400,"drain":4000}}`,
		map[string]fieldCase{
			"figure":       {keyed, `{"figure":"fig9"}`, ""},
			"name":         {keyed, `{"name":"a"}`, ""},
			"n":            {keyed, `{"n":32}`, ""},
			"msglen":       {keyed, `{"msglen":8}`, ""},
			"beta":         {keyed, `{"beta":0.1}`, ""},
			"models":       {keyed, `{"models":["quarc","ring"]}`, ""},
			"pattern":      {keyed, `{"pattern":"antipodal"}`, ""},
			"hotspot_bias": {keyed, `{"hotspot_bias":0.6}`, hotspot},
			"mcast_frac":   {keyed, `{"mcast_frac":0.2}`, mcast},
			"mcast_size":   {keyed, `{"mcast_size":4}`, mcast},
			"rates":        {keyed, `{"rates":[0.02]}`, ""},
			"opts.warmup":  {keyed, `{"opts":{"warmup":200}}`, ""},
			"opts.measure": {keyed, `{"opts":{"measure":800}}`, ""},
			"opts.drain":   {keyed, `{"opts":{"drain":8000}}`, ""},
			"opts.depth":   {keyed, `{"opts":{"depth":8}}`, ""},
			"opts.seed":    {keyed, `{"opts":{"seed":2}}`, ""},
			// The grid size only matters when the rates are derived from it.
			"opts.points":       {keyed, `{"opts":{"points":5}}`, `{"rates":null}`},
			"opts.replicates":   {keyed, `{"opts":{"replicates":2}}`, ""},
			"opts.workers":      {execOnly, `{"opts":{"workers":4}}`, ""},
			"opts.step_workers": {execOnly, `{"opts":{"step_workers":4}}`, ""},
			"deadline_ms":       {execOnly, `{"deadline_ms":500}`, ""},
		}},
	{"explore", reflect.TypeOf(ExploreRequest{}),
		`{"models":["quarc"],"ns":[16],"rates":[0.01],"opts":{"warmup":100,"measure":400,"drain":4000}}`,
		map[string]fieldCase{
			"models":            {keyed, `{"models":["spidergon"]}`, ""},
			"ns":                {keyed, `{"ns":[32]}`, ""},
			"rates":             {keyed, `{"rates":[0.02]}`, ""},
			"depths":            {keyed, `{"depths":[2]}`, ""},
			"mcast":             {keyed, `{"mcast":[{"frac":0.2,"size":3}]}`, ""},
			"msglen":            {keyed, `{"msglen":8}`, ""},
			"beta":              {keyed, `{"beta":0.1}`, ""},
			"pattern":           {keyed, `{"pattern":"antipodal"}`, ""},
			"hotspot_bias":      {keyed, `{"hotspot_bias":0.6}`, hotspot},
			"cost_width":        {keyed, `{"cost_width":64}`, ""},
			"opts.warmup":       {keyed, `{"opts":{"warmup":200}}`, ""},
			"opts.measure":      {keyed, `{"opts":{"measure":800}}`, ""},
			"opts.drain":        {keyed, `{"opts":{"drain":8000}}`, ""},
			"opts.depth":        {keyed, `{"opts":{"depth":8}}`, ""},
			"opts.seed":         {keyed, `{"opts":{"seed":2}}`, ""},
			"opts.points":       {rejected, `{"opts":{"points":5}}`, ""},
			"opts.replicates":   {keyed, `{"opts":{"replicates":2}}`, ""},
			"opts.workers":      {execOnly, `{"opts":{"workers":4}}`, ""},
			"opts.step_workers": {execOnly, `{"opts":{"step_workers":4}}`, ""},
			"deadline_ms":       {execOnly, `{"deadline_ms":500}`, ""},
		}},
}

// wireFields lists the JSON paths of t's exported fields, descending into
// nested structs.
func wireFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type.Kind() == reflect.Struct {
			out = append(out, wireFields(f.Type, prefix+name+".")...)
		} else {
			out = append(out, prefix+name)
		}
	}
	return out
}

// overlay merges the JSON object patch into dst, recursing into objects.
func overlay(dst, patch map[string]any) {
	for k, v := range patch {
		sub, ok := v.(map[string]any)
		if d, isObj := dst[k].(map[string]any); ok && isObj {
			overlay(d, sub)
			continue
		}
		dst[k] = v
	}
}

// Every wire field's cache-key fate is decided and holds through the kind's
// own parser: a keyed field moves the key, an execution-only one cannot, a
// rejected one is refused. A field added without a decision fails here, and
// so does a key that drops a keyed field or hashes an execution-only one.
func TestWireFieldsDecideKeyFate(t *testing.T) {
	for _, tab := range fateTables {
		t.Run(tab.kind, func(t *testing.T) {
			fields := wireFields(tab.typ, "")
			for _, f := range fields {
				if _, ok := tab.cases[f]; !ok {
					t.Errorf("wire field %q has no cache-key fate: add it to the table as keyed, execOnly or rejected", f)
				}
			}
			if len(tab.cases) > len(fields) {
				t.Errorf("the table decides %d fields, %s has %d: drop the stale entries", len(tab.cases), tab.typ, len(fields))
			}
			parse := func(patches ...string) (string, error) {
				var body map[string]any
				if err := json.Unmarshal([]byte(tab.base), &body); err != nil {
					t.Fatal(err)
				}
				for _, p := range patches {
					var m map[string]any
					if p != "" {
						if err := json.Unmarshal([]byte(p), &m); err != nil {
							t.Fatal(err)
						}
					}
					overlay(body, m)
				}
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				key, _, _, err := parseKind(tab.kind, b)
				return key, err
			}
			for f, c := range tab.cases {
				before, err := parse(c.with)
				if err != nil {
					t.Fatalf("%s: base body refused: %v", f, err)
				}
				after, err := parse(c.with, c.change)
				switch {
				case c.fate == rejected:
					if err == nil {
						t.Errorf("%s is rejected but %s was accepted", f, c.change)
					}
				case err != nil:
					t.Errorf("%s: %s refused: %v", f, c.change, err)
				case c.fate == keyed && after == before:
					t.Errorf("%s is keyed but %s leaves the key unchanged", f, c.change)
				case c.fate == execOnly && after != before:
					t.Errorf("%s is execution-only but %s changes the key", f, c.change)
				}
			}
		})
	}
}

// The /metrics exposition a fresh server's handler serves follows the
// Prometheus naming rules scrapers rely on: every name is
// quarcd_[a-z][a-z0-9_]*, declared once, a counter exactly when it ends in
// _total, with one sample after its declaration. 34 is the count when this
// test was written; a metric may be added, not lost.
func TestMetricsExposition(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	code, body := serve(t, svc, http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	valid := regexp.MustCompile(`^quarcd_[a-z][a-z0-9_]*$`)
	types := map[string]string{}
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			name, typ := f[2], f[3]
			if _, dup := types[name]; dup {
				t.Errorf("metric %s declared twice", name)
			}
			types[name] = typ
			if !valid.MatchString(name) {
				t.Errorf("metric %s breaks the quarcd_[a-z][a-z0-9_]* convention", name)
			}
			if (typ == "counter") != strings.HasSuffix(name, "_total") {
				t.Errorf("%s %s: a metric is a counter exactly when its name ends in _total", typ, name)
			}
		case len(f) == 2 && types[f[0]] != "":
			samples++
		default:
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	if len(types) < 34 || samples != len(types) {
		t.Fatalf("%d metrics declared with %d samples, want at least 34 and one sample each", len(types), samples)
	}
}
