package network_test

import (
	"testing"

	"quarc/internal/mesh"
	"quarc/internal/network"
)

// drain steps the fabric until every message has landed exactly once.
func drain(t *testing.T, fab *network.Fabric) {
	t.Helper()
	for i := 0; i < 20000 && fab.Tracker.InFlight() > 0; i++ {
		fab.Step()
	}
	if left := fab.Tracker.InFlight(); left != 0 {
		t.Fatalf("%d messages still in flight", left)
	}
	if d := fab.Tracker.Duplicates(); d != 0 {
		t.Fatalf("%d duplicate deliveries", d)
	}
}

// TestOnePortAdapter covers BaseAdapter's software collectives, the
// per-message paths of every model without hardware collectives (mesh, torus
// and ring use them, the Spidergon all but its broadcast), on a 9x9 mesh so
// that node ids cross the 64-bit dedup mask.
func TestOnePortAdapter(t *testing.T) {
	const msgLen = 4
	build := func(t *testing.T) (*network.Fabric, []*network.BaseAdapter, *[]network.MessageRecord) {
		fab, as, err := mesh.Build(mesh.Config{W: 9, H: 9, Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		var done []network.MessageRecord
		fab.Tracker.OnDone = func(r network.MessageRecord) { done = append(done, r) }
		return fab, as, &done
	}

	t.Run("self unicast panics", func(t *testing.T) {
		_, as, _ := build(t)
		defer func() {
			if recover() == nil {
				t.Fatal("unicast to self accepted")
			}
		}()
		as[7].SendUnicast(7, msgLen, 0)
	})

	t.Run("broadcast is n-1 unicasts", func(t *testing.T) {
		fab, as, done := build(t)
		as[7].SendBroadcast(msgLen, 0)
		if got, want := as[7].Backlog(), 80*msgLen; got != want {
			t.Fatalf("broadcast queued %d flits, want %d", got, want)
		}
		drain(t, fab)
		if len(*done) != 1 || (*done)[0].Class != network.ClassBroadcast || (*done)[0].Delivered != 80 {
			t.Fatalf("broadcast record %+v, want one broadcast with 80 deliveries", *done)
		}
	})

	t.Run("multicast ignores self and duplicates", func(t *testing.T) {
		fab, as, done := build(t)
		as[7].SendMulticast([]int{3, 70, 7, 3, 70, 5, 80}, msgLen, 0)
		if got, want := as[7].Backlog(), 4*msgLen; got != want {
			t.Fatalf("multicast queued %d flits, want %d (targets 3, 70, 5, 80)", got, want)
		}
		drain(t, fab)
		if len(*done) != 1 || (*done)[0].Class != network.ClassMulticast || (*done)[0].Delivered != 4 {
			t.Fatalf("multicast record %+v, want one multicast with 4 deliveries", *done)
		}
	})

	t.Run("multicast without remote targets panics", func(t *testing.T) {
		_, as, _ := build(t)
		defer func() {
			if recover() == nil {
				t.Fatal("multicast to self alone accepted")
			}
		}()
		as[7].SendMulticast([]int{7, 7}, msgLen, 0)
	})
}
