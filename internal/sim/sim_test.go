package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var k Kernel
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		k.Schedule(at, PriFabric, func(now Time) {
			if now != at {
				t.Errorf("event scheduled at %d fired at %d", at, now)
			}
			got = append(got, now)
		})
	}
	k.Run(100)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameCyclePriorityOrder(t *testing.T) {
	var k Kernel
	var got []Priority
	k.Schedule(10, PriStats, func(Time) { got = append(got, PriStats) })
	k.Schedule(10, PriTraffic, func(Time) { got = append(got, PriTraffic) })
	k.Schedule(10, PriFabric, func(Time) { got = append(got, PriFabric) })
	k.Run(10)
	want := []Priority{PriTraffic, PriFabric, PriStats}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

func TestSamePrioritySeqOrder(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(1, PriFabric, func(Time) { got = append(got, i) })
	}
	k.Run(1)
	for i, v := range got {
		if v != i {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestRunUntilBoundary(t *testing.T) {
	var k Kernel
	fired := 0
	k.Schedule(5, PriFabric, func(Time) { fired++ })
	k.Schedule(6, PriFabric, func(Time) { fired++ })
	end := k.Run(5)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event at 6 is beyond until)", fired)
	}
	if end != 5 {
		t.Fatalf("Run returned %d, want 5", end)
	}
	k.Run(6)
	if fired != 2 {
		t.Fatalf("fired = %d after second run, want 2", fired)
	}
}

func TestSchedulingFromWithinEvent(t *testing.T) {
	var k Kernel
	var got []Time
	k.Schedule(1, PriFabric, func(now Time) {
		got = append(got, now)
		k.After(2, PriFabric, func(now Time) { got = append(got, now) })
	})
	k.Run(10)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got = %v, want [1 3]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.Schedule(5, PriFabric, func(Time) {})
	k.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(1, PriFabric, func(Time) {})
}

func TestStop(t *testing.T) {
	var k Kernel
	fired := 0
	k.Schedule(1, PriFabric, func(Time) { fired++; k.Stop() })
	k.Schedule(2, PriFabric, func(Time) { fired++ })
	k.Run(10)
	if fired != 1 {
		t.Fatalf("Stop did not halt the run: fired = %d", fired)
	}
	// Run can be resumed afterwards.
	k.Run(10)
	if fired != 2 {
		t.Fatalf("resume after Stop failed: fired = %d", fired)
	}
}

func TestTicker(t *testing.T) {
	var k Kernel
	var ticks []Time
	k.Ticker(0, 3, PriFabric, func(now Time) bool {
		ticks = append(ticks, now)
		return now < 9
	})
	k.Run(100)
	want := []Time{0, 3, 6, 9}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	k.Ticker(0, 0, PriFabric, func(Time) bool { return false })
}

func TestNowAdvancesToUntil(t *testing.T) {
	var k Kernel
	if end := k.Run(42); end != 42 {
		t.Fatalf("empty run returned %d, want 42", end)
	}
	if k.Now() != 42 {
		t.Fatalf("Now() = %d, want 42", k.Now())
	}
}

// Property: for any set of (time, priority) pairs, execution order is the
// lexicographic order by (time, priority, insertion index).
func TestOrderingProperty(t *testing.T) {
	type item struct {
		At  uint8
		Pri uint8
	}
	check := func(items []item) bool {
		var k Kernel
		type key struct {
			at   Time
			pri  Priority
			seq  int
			name int
		}
		var fired []key
		for i, it := range items {
			i := i
			at := Time(it.At % 16)
			pri := Priority(it.Pri % 3)
			k.Schedule(at, pri, func(now Time) {
				fired = append(fired, key{at, pri, i, i})
			})
		}
		k.Run(1000)
		if len(fired) != len(items) {
			return false
		}
		return sort.SliceIsSorted(fired, func(a, b int) bool {
			x, y := fired[a], fired[b]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.pri != y.pri {
				return x.pri < y.pri
			}
			return x.seq < y.seq
		})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var k Kernel
		for j := 0; j < 100; j++ {
			k.Schedule(Time(j%10), PriFabric, func(Time) {})
		}
		k.Run(10)
	}
}
