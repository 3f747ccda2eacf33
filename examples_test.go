package quarc_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesMatchGolden builds the deterministic examples and checks that
// each prints exactly its examples/testdata golden, so an example the library
// has drifted away from fails here instead of shipping. (examples/sweep
// prints wall-clock times and is left out.) An example still running shortly
// before the test's deadline (a deadlocked fabric spins forever) is killed,
// and the test fails naming it rather than leaving it running.
func TestExamplesMatchGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("needs the go command to build the examples")
	}
	names := []string{"quickstart", "multicast", "barrier"}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, name := range names {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ctx := context.Background()
	if deadline, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline.Add(-10*time.Second))
		defer cancel()
	}
	for _, name := range names {
		cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
		cmd.WaitDelay = time.Second
		got, err := cmd.Output()
		if ctx.Err() != nil {
			t.Fatalf("examples/%s still running near the test deadline: killed (%v)", name, err)
		}
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
