package sim

import "testing"

// Dedicated Kernel bookkeeping tests: the calendar's NextEventTime
// accounting, the repeating-event (ticker) lifecycle including the skip API
// the traffic sources use, and RunBefore, through which the experiment
// layer's clock loop fires the calendar between fabric cycles.

// Same-cycle ordering: priority first, then insertion sequence — including a
// ticker re-pushed at the cycle it fired from (its sequence is taken after
// the callback, so it runs after same-priority events already scheduled).
func TestSameCyclePriorityThenSeq(t *testing.T) {
	var k Kernel
	var got []string
	k.Schedule(4, PriStats, func(Time) { got = append(got, "stats") })
	k.Schedule(4, PriFabric, func(Time) { got = append(got, "fabric-a") })
	k.Schedule(4, PriTraffic, func(Time) { got = append(got, "traffic") })
	k.Schedule(4, PriFabric, func(Time) { got = append(got, "fabric-b") })
	k.Run(4)
	want := []string{"traffic", "fabric-a", "fabric-b", "stats"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTickerSelfStop(t *testing.T) {
	var k Kernel
	ticks := 0
	k.Ticker(0, 2, PriFabric, func(now Time) bool {
		ticks++
		return now < 4 // fires at 0, 2, 4; stops after 4
	})
	k.Run(100)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if at, ok := k.NextEventTime(); ok {
		t.Fatalf("a stopped ticker left an event at %d", at)
	}
}

func TestNextEventTime(t *testing.T) {
	var k Kernel
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty calendar reported a next event")
	}
	k.Schedule(12, PriFabric, func(Time) {})
	k.Schedule(9, PriFabric, func(Time) {})
	if at, ok := k.NextEventTime(); !ok || at != 9 {
		t.Fatalf("NextEventTime = %d,%v, want 9,true", at, ok)
	}
	k.Run(10)
	if at, ok := k.NextEventTime(); !ok || at != 12 {
		t.Fatalf("NextEventTime = %d,%v after the first event, want 12,true", at, ok)
	}
	k.Run(20)
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("drained calendar reported a next event")
	}
}

// TestTickerSkipTo is the idle-skipping contract: a per-cycle ticker can
// fast-forward its next firing to the calendar's next event, and the skip
// never moves a firing earlier than one period ahead.
func TestTickerSkipTo(t *testing.T) {
	var k Kernel
	var ticks []Time
	arrivals := []Time{40, 41, 90}
	for _, at := range arrivals {
		k.Schedule(at, PriTraffic, func(Time) {})
	}
	var e *Event
	e = k.Ticker(0, 1, PriFabric, func(now Time) bool {
		ticks = append(ticks, now)
		if next, ok := k.NextEventTime(); ok && next > now+1 {
			e.SkipTo(next)
		}
		return now < 100
	})
	k.Run(200)
	// Tick at 0 skips to 40; 40 sees the arrival at 41 (period lower bound
	// keeps it at 41, not earlier); 41 skips to 90; 90 has nothing left and
	// ticks densely until the callback stops itself at 100.
	want := []Time{0, 40, 41, 90}
	for i := Time(91); i <= 100; i++ {
		want = append(want, i)
	}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// TestTickerSkipToPastUntil: a skip target beyond the run horizon simply
// parks the ticker there; Run still ends at until.
func TestTickerSkipToPastUntil(t *testing.T) {
	var k Kernel
	ticks := 0
	var e *Event
	e = k.Ticker(0, 1, PriFabric, func(now Time) bool {
		ticks++
		e.SkipTo(500)
		return true
	})
	if end := k.Run(100); end != 100 {
		t.Fatalf("Run returned %d, want 100", end)
	}
	if ticks != 1 {
		t.Fatalf("ticks = %d, want 1", ticks)
	}
	if at, ok := k.NextEventTime(); !ok || at != 500 {
		t.Fatalf("NextEventTime = %d,%v, want the ticker parked at 500", at, ok)
	}
}

// TestRunBeforeBoundaryIsExclusive: RunBefore(t, pri) fires every event that
// sorts strictly before (t, pri) — earlier cycles at any priority — and
// leaves an event at exactly (t, pri) queued.
func TestRunBeforeBoundaryIsExclusive(t *testing.T) {
	var k Kernel
	var got []string
	k.Schedule(4, PriStats, func(Time) { got = append(got, "4/stats") })
	k.Schedule(5, PriFabric, func(Time) { got = append(got, "5/fabric") })
	k.Schedule(6, PriTraffic, func(Time) { got = append(got, "6/traffic") })
	k.RunBefore(5, PriFabric)
	if len(got) != 1 || got[0] != "4/stats" {
		t.Fatalf("RunBefore(5, PriFabric) fired %v, want [4/stats]", got)
	}
	if at, ok := k.NextEventTime(); !ok || at != 5 || len(k.heap) != 2 {
		t.Fatalf("next event %d,%v with %d queued, want the event at 5 of 2", at, ok, len(k.heap))
	}
	k.RunBefore(5, PriFabric) // idempotent at the same boundary
	if len(got) != 1 {
		t.Fatalf("a repeated RunBefore fired %v", got[1:])
	}
}

// TestRunBeforeSameCyclePriority: at the boundary cycle a lower priority runs
// and a higher one waits for the next call.
func TestRunBeforeSameCyclePriority(t *testing.T) {
	var k Kernel
	var got []Priority
	k.Schedule(7, PriStats, func(Time) { got = append(got, PriStats) })
	k.Schedule(7, PriTraffic, func(Time) { got = append(got, PriTraffic) })
	k.RunBefore(7, PriFabric)
	if len(got) != 1 || got[0] != PriTraffic {
		t.Fatalf("RunBefore(7, PriFabric) fired %v, want only the traffic event", got)
	}
	k.RunBefore(8, PriFabric)
	if len(got) != 2 || got[1] != PriStats {
		t.Fatalf("RunBefore(8, PriFabric) fired %v, want the stats event of 7 next", got)
	}
}

// TestRunBeforeTickerSeqMatchesRun: a ticker re-pushed by RunBefore takes
// the same sequence number as under Run, so driving the calendar one cycle
// at a time keeps every same-cycle tie where Run would break it. The ticker
// schedules a one-shot each firing, interleaving fresh sequence numbers.
func TestRunBeforeTickerSeqMatchesRun(t *testing.T) {
	type firing struct {
		at  Time
		seq uint64
	}
	run := func(drive func(k *Kernel)) []firing {
		var k Kernel
		var got []firing
		var e *Event
		e = k.Ticker(0, 1, PriTraffic, func(now Time) bool {
			got = append(got, firing{now, e.seq})
			k.Schedule(now+1, PriStats, func(Time) {})
			e.SkipTo(now + 1 + now%3)
			return now < 20
		})
		k.Schedule(9, PriTraffic, func(now Time) { got = append(got, firing{now, 1 << 62}) })
		drive(&k)
		return got
	}
	want := run(func(k *Kernel) { k.Run(30) })
	got := run(func(k *Kernel) {
		for c := Time(0); c <= 31; c++ {
			k.RunBefore(c, PriFabric)
		}
	})
	if len(got) != len(want) || len(want) < 8 {
		t.Fatalf("RunBefore fired %v, Run fired %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: RunBefore %+v, Run %+v", i, got[i], want[i])
		}
	}
}

// TestRunBeforeStopsMidCalendar: Stop from inside an event halts RunBefore
// before the next event, Stopped reports it, a stopped kernel's RunBefore
// fires nothing, and Run resumes it.
func TestRunBeforeStopsMidCalendar(t *testing.T) {
	var k Kernel
	fired := 0
	k.Schedule(1, PriTraffic, func(Time) { fired++ })
	k.Schedule(2, PriTraffic, func(Time) { fired++; k.Stop() })
	k.Schedule(3, PriTraffic, func(Time) { fired++ })
	k.RunBefore(10, PriFabric)
	if fired != 2 || !k.Stopped() {
		t.Fatalf("fired %d, stopped %v; want 2 events and a stopped kernel", fired, k.Stopped())
	}
	k.RunBefore(10, PriFabric)
	if fired != 2 {
		t.Fatal("a stopped kernel's RunBefore fired an event")
	}
	k.Run(10)
	if fired != 3 || k.Stopped() {
		t.Fatalf("Run after Stop fired %d events, stopped %v; want 3, false", fired, k.Stopped())
	}
}
