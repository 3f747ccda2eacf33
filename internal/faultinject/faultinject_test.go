package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The flag/env spec form must round-trip through ParseSpec/String: quarcd
// logs the active plan in String form, and operators paste that line back
// into -chaos to reproduce a schedule.
func TestParseSpecRoundTrip(t *testing.T) {
	in := "seed=42,err=0.1,torn=0.05,slow=0.02,delay=5ms,ops=4000"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 42, ErrRate: 0.1, TornRate: 0.05, DelayRate: 0.02,
		Delay: 5 * time.Millisecond, MaxOps: 4000}
	if spec != want {
		t.Fatalf("ParseSpec(%q) = %+v, want %+v", in, spec, want)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if again != spec {
		t.Fatalf("round trip: %+v != %+v", again, spec)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"",             // empty
		"err",          // no value
		"err=1.5",      // rate outside [0,1]
		"torn=-0.1",    // negative rate
		"bogus=1",      // unknown key
		"delay=fast",   // unparseable duration
		"seed=notanum", // unparseable seed
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
	// Accepted once: a NaN rate (it passes a bare range test), a negative
	// delay and a negative op budget. The error names the key.
	for bad, key := range map[string]string{
		"err=NaN": "err", "torn=nan": "torn", "slow=NaN": "slow",
		"delay=-5ms": "delay", "ops=-1": "ops",
	} {
		_, err := ParseSpec("seed=1," + bad)
		if err == nil || !strings.Contains(err.Error(), key+"=") {
			t.Errorf("ParseSpec(%q) = %v, want an error naming %s", bad, err, key)
		}
	}
}

// FuzzParseSpec: whatever ParseSpec accepts, its String form parses back to
// the same Spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"seed=42,err=0.1,torn=0.05,slow=0.02,delay=5ms,ops=4000",
		"seed=0x10,err=1,torn=0", "delay=1h2m3.5s", "ops=0", "err=1e-300", "err=-0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		back, err := ParseSpec(sp.String())
		if err != nil || back != sp {
			t.Fatalf("ParseSpec(%q) = %+v; its String %q parses to %+v, %v", s, sp, sp.String(), back, err)
		}
	})
}

// Two plans with the same spec must issue the identical verdict sequence —
// chaos tests are property tests only if the schedule is a pure function of
// the spec.
func TestPlanDeterminism(t *testing.T) {
	spec := Spec{Seed: 7, ErrRate: 0.3, TornRate: 0.2, DelayRate: 0.1}
	a, b := New(spec), New(spec)
	for i := 0; i < 2000; i++ {
		write := i%3 == 0
		va, _ := a.verdict(write)
		vb, _ := b.verdict(write)
		if va != vb {
			t.Fatalf("op %d: verdicts diverge (%v vs %v)", i, va, vb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Injected() == 0 {
		t.Fatal("plan with 50% combined fault rate injected nothing in 2000 ops")
	}
}

// The schedule position of an operation must not depend on which faults
// fired before it: a plan with rates zeroed must leave later draws where a
// faulting plan leaves them. This is what makes "same seed, different rates"
// schedules comparable.
func TestVerdictDrawsFixedVariatesPerOp(t *testing.T) {
	// Plan A faults often; plan B never faults. After the same number of ops
	// their PRNG states must be identical, which we observe by switching B to
	// A's rates and checking the tails agree with a third plan fast-forwarded
	// the same way.
	specFaulty := Spec{Seed: 99, ErrRate: 0.5, TornRate: 0.3, DelayRate: 0.1}
	specQuiet := Spec{Seed: 99}
	a, b := New(specFaulty), New(specQuiet)
	const warm = 500
	for i := 0; i < warm; i++ {
		a.verdict(true)
		b.verdict(true)
	}
	if a.state != b.state {
		t.Fatalf("PRNG states diverge after %d ops: %#x vs %#x", warm, a.state, b.state)
	}
}

// MaxOps quiets the plan: after the budget, every operation passes through,
// modelling a fault episode that ends so recovery can be asserted.
func TestMaxOpsQuietsPlan(t *testing.T) {
	p := New(Spec{Seed: 1, ErrRate: 1, MaxOps: 10})
	for i := 0; i < 10; i++ {
		if v, _ := p.verdict(false); v != vErr {
			t.Fatalf("op %d: verdict %v, want error while budget lasts", i, v)
		}
	}
	for i := 0; i < 100; i++ {
		if v, _ := p.verdict(false); v != vOK {
			t.Fatalf("op %d past budget: verdict %v, want pass-through", 10+i, v)
		}
	}
	st := p.Stats()
	if st.Errors != 10 || st.Ops != 110 {
		t.Fatalf("stats %+v, want 10 errors over 110 ops", st)
	}
}

// A torn write persists exactly the first half of the buffer and fails with
// ErrInjected — the on-disk shape of a power loss mid-write.
func TestTornWritePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	p := New(Spec{Seed: 5, TornRate: 1})
	fs := p.Wrap(OS{})
	path := filepath.Join(dir, "victim")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		// OpenFile consults the plan too; with torn=1 and err=0 opens pass.
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, werr := f.Write(payload)
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", werr)
	}
	if n != len(payload)/2 {
		t.Fatalf("write reported %d bytes, want %d", n, len(payload)/2)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close (never injected): %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload[:len(payload)/2]) {
		t.Fatalf("on disk %q, want prefix %q", got, payload[:len(payload)/2])
	}
}

// Boot-path operations are never injected, whatever the rates: a fault plan
// must not stop the daemon from coming up.
func TestBootPathNeverInjected(t *testing.T) {
	dir := t.TempDir()
	p := New(Spec{Seed: 3, ErrRate: 1})
	fs := p.Wrap(OS{})
	sub := filepath.Join(dir, "a", "b")
	if err := fs.MkdirAll(sub, 0o755); err != nil {
		t.Fatalf("MkdirAll injected: %v", err)
	}
	if _, err := fs.ReadDir(dir); err != nil {
		t.Fatalf("ReadDir injected: %v", err)
	}
	if st := p.Stats(); st.Ops != 0 {
		t.Fatalf("boot-path ops consumed %d plan draws, want 0", st.Ops)
	}
}

// The OS pass-through must behave like the os package, including SyncDir on
// a real directory.
func TestOSPassThrough(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OS{}
	path := filepath.Join(dir, "f")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	b, err := fs.ReadFile(path)
	if err != nil || string(b) != "hi" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
}
