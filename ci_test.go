package quarc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// testFlag matches a -run, -bench or -fuzz flag and its pattern, quoted
	// or not (-benchmem, -benchtime and -fuzztime do not match).
	testFlag = regexp.MustCompile(`-(run|bench|fuzz)[= ]('[^']*'|\S+)`)
	testName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	fuzzFlag = regexp.MustCompile(`-fuzz=(Fuzz\w*)`)
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
)

// TestCIRunPatternsNameRealTests reads every go test command in the CI
// workflow and the Makefile and checks that each test, benchmark or fuzz
// target its -run, -bench or -fuzz pattern names is defined in a _test.go
// file of the package on the same line. A pattern that names a moved or
// renamed test matches nothing, and go test passes it silently.
func TestCIRunPatternsNameRealTests(t *testing.T) {
	checked := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") ||
				!strings.Contains(line, "go test") && !strings.Contains(line, "$(GO) test") {
				continue
			}
			flags := testFlag.FindAllStringSubmatch(line, -1)
			if len(flags) == 0 {
				continue
			}
			var pkgs []string
			for _, tok := range strings.Fields(line) {
				if tok == "." || strings.HasPrefix(tok, "./") {
					pkgs = append(pkgs, tok)
				}
			}
			if len(pkgs) != 1 {
				t.Errorf("%s:%d: want one package path, found %q", file, i+1, pkgs)
				continue
			}
			for _, f := range flags {
				for _, name := range patternNames(f[2]) {
					if name == "" || name == "." {
						continue
					}
					if !testName.MatchString(name) {
						t.Errorf("%s:%d: cannot read a test name from %q", file, i+1, f[2])
						continue
					}
					if !definesTest(t, pkgs[0], name) {
						t.Errorf("%s:%d: -%s names %s, which no _test.go file in %s defines", file, i+1, f[1], name, pkgs[0])
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no test names found; the check is vacuous")
	}
}

// TestEveryFuzzTargetRunsInCI checks that every func Fuzz... in a _test.go
// file of the module has a line of the Makefile's fuzz-short target, which CI
// runs, that fuzzes it in its own package directory. go test -fuzz takes one
// target at a time, so a target without its line would never be fuzzed.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(data), "\nfuzz-short:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-short target")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		name := fuzzFlag.FindStringSubmatch(line)
		if name == nil {
			continue
		}
		for _, tok := range strings.Fields(line) {
			if strings.HasPrefix(tok, "./") {
				listed[filepath.Clean(tok)+" "+name[1]] = true
			}
		}
	}

	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found++
			if key := filepath.Dir(path) + " " + m[1]; !listed[key] {
				t.Errorf("%s: %s has no fuzz-short line fuzzing it in ./%s", path, m[1], filepath.Dir(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz targets found; the check is vacuous")
	}
}

// patternNames returns the top-level names a go test pattern lists: anchors
// and grouping stripped, alternatives split, and sub-test levels dropped.
func patternNames(pattern string) []string {
	pattern = strings.Trim(pattern, "'")
	pattern, _, _ = strings.Cut(pattern, "/")
	pattern = strings.NewReplacer("^", "", "$", "", "(", "", ")", "").Replace(pattern)
	return strings.Split(pattern, "|")
}

// definesTest reports whether a _test.go file directly in dir declares
// func name(.
func definesTest(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "\nfunc "+name+"(") {
			return true
		}
	}
	return false
}
