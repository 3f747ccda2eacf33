package lint

import (
	"strings"
	"testing"
)

// fixture loads one testdata package, posing as importPath so path-scoped
// analyzers see the package they expect.
func fixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkgs, err := Load("../..", "./internal/lint/testdata/src/"+dir)
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading fixture %s: %d packages, %v", dir, len(pkgs), err)
	}
	pkgs[0].PkgPath = importPath
	return pkgs[0]
}

// checkFixture runs one analyzer over a fixture and fails on any mismatch
// with its // want comments.
func checkFixture(t *testing.T, dir, importPath string, a *Analyzer) {
	t.Helper()
	pkg := fixture(t, dir, importPath)
	for _, e := range CheckFixture(pkg, []*Analyzer{a}) {
		t.Error(e)
	}
}

// The harness reports both ways a fixture can disagree with its analyzer:
// a want no diagnostic matches and a diagnostic no want expects. The same
// fixture with both corrected reports nothing.
func TestCheckFixtureReports(t *testing.T) {
	errs := CheckFixture(fixture(t, "harness", "quarc/fixture/harness"), []*Analyzer{HotPath})
	if len(errs) != 2 ||
		!strings.HasPrefix(errs[0], "unexpected diagnostic: ") || !strings.Contains(errs[0], "fmt.Println in hot path") ||
		!strings.HasSuffix(errs[1], `fixture.go:10: no diagnostic matching "defer in hot path"`) {
		t.Errorf("got %q, want the unexpected fmt.Println and the unmatched defer want", errs)
	}
	if errs := CheckFixture(fixture(t, "harnessok", "quarc/fixture/harness"), []*Analyzer{HotPath}); len(errs) != 0 {
		t.Errorf("corrected fixture: %q", errs)
	}
}

func TestDeterminismFixture(t *testing.T) {
	// Posed as internal/network: fully inside the determinism scope.
	checkFixture(t, "determinism", "quarc/internal/network", Determinism)
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The same sources posed as a non-simulation package produce nothing:
	// the scope map is what keeps cmd/ and the HTTP layer free to use
	// clocks and goroutines.
	pkg := fixture(t, "determinism", "quarc/internal/webui")
	if diags := RunAnalyzers(pkg, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("determinism fired outside its scope: %v", diags)
	}
}

// In a package checked file by file, an unlisted file stays silent while a
// listed one reports.
func TestDeterminismFileScope(t *testing.T) {
	checkFixture(t, "servicescope", "quarc/internal/service", Determinism)
}

func TestHotPathFixture(t *testing.T) {
	checkFixture(t, "hotpath", "quarc/fixture/hotpath", HotPath)
}

// An unknown //quarc: verb is a finding, whether it is a typo of a live verb
// or a retired one.
func TestUnknownDirective(t *testing.T) {
	pkg := fixture(t, "directive", "quarc/fixture/directive")
	var got []string
	for _, d := range RunAnalyzers(pkg, All()) {
		if d.Analyzer != "directive" {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		got = append(got, d.Message)
	}
	if len(got) != 2 || !strings.Contains(got[0], "//quarc:hotpth") || !strings.Contains(got[1], "//quarc:coordinator") {
		t.Fatalf("got %q, want the hotpth typo and the retired coordinator verb", got)
	}
}

func TestAllowSuppression(t *testing.T) {
	pkg := fixture(t, "allow", "quarc/fixture/allow")
	diags := RunAnalyzers(pkg, []*Analyzer{HotPath})

	wants := []struct{ analyzer, substr string }{
		// unjustified(): the reason-less allow suppresses nothing...
		{"hotpath", `fmt.Println in hot path`},
		// ...and is a finding of its own.
		{"allow", "needs a justification"},
		// wrongAnalyzer(): an allow for another analyzer does not apply.
		{"hotpath", `fmt.Println in hot path`},
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic from %s containing %q in %v", w.analyzer, w.substr, diags)
		}
	}
	// The justified allow in suppressed() must have silenced its fmt call.
	for _, d := range diags {
		if d.Pos.Line < 14 {
			t.Errorf("diagnostic inside the suppressed function: %v", d)
		}
	}
}

// TestQuarcvetCleanTree is the dogfooding gate: the real repository, loaded
// exactly as cmd/quarcvet loads it, must produce zero unsuppressed
// diagnostics. A regression anywhere in internal/ (a stray clock read, an
// allocation on the hot path, an unknown //quarc: verb) fails this test
// before it fails CI's quarcvet run.
func TestQuarcvetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, All()) {
			t.Errorf("%s", d)
		}
	}
}
