package quarc_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesMatchGolden builds the deterministic examples and checks that
// each prints exactly its examples/testdata golden, so an example the library
// has drifted away from fails here instead of shipping. (examples/sweep
// prints wall-clock times and is left out.)
func TestExamplesMatchGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("needs the go command to build the examples")
	}
	names := []string{"quickstart", "multicast", "barrier", "cachecoherence"}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, name := range names {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		got, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("examples", "testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("examples/%s departs from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
