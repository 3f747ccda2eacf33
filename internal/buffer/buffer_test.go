package buffer

import (
	"testing"
	"testing/quick"

	"quarc/internal/flit"
)

func mk(seq int) flit.Flit { return flit.Flit{Seq: seq, PktID: 1} }

func TestNewPanicsOnBadDepth(t *testing.T) {
	for _, d := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func TestFIFOOrder(t *testing.T) {
	q := New(4)
	for i := 0; i < 4; i++ {
		if !q.Push(mk(i)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < 4; i++ {
		f, ok := q.Pop()
		if !ok || f.Seq != i {
			t.Fatalf("pop %d = (%v, %v)", i, f.Seq, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
}

func TestFullAndEmptySignals(t *testing.T) {
	q := New(2)
	if !q.Empty() || q.Full() {
		t.Fatal("fresh FIFO signals wrong")
	}
	q.Push(mk(0))
	if q.Empty() || q.Full() {
		t.Fatal("half-full FIFO signals wrong")
	}
	q.Push(mk(1))
	if !q.Full() || q.Empty() {
		t.Fatal("full FIFO signals wrong")
	}
	if q.Push(mk(2)) {
		t.Fatal("push into full FIFO accepted")
	}
	if q.Len() != 2 || q.Free() != 0 || q.Cap() != 2 {
		t.Fatalf("Len/Free/Cap = %d/%d/%d", q.Len(), q.Free(), q.Cap())
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	q := New(2)
	q.Push(mk(7))
	for i := 0; i < 3; i++ {
		f, ok := q.Peek()
		if !ok || f.Seq != 7 {
			t.Fatalf("peek %d = (%v,%v)", i, f.Seq, ok)
		}
	}
	if q.Len() != 1 {
		t.Fatal("peek consumed the flit")
	}
	if _, ok := New(1).Peek(); ok {
		t.Fatal("peek on empty FIFO reported ok")
	}
}

func TestWrapAround(t *testing.T) {
	q := New(3)
	seq := 0
	// Push/pop many times so head wraps repeatedly.
	for round := 0; round < 50; round++ {
		for q.Push(mk(seq)) {
			seq++
		}
		f, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed on non-empty FIFO")
		}
		want := seq - q.Len() - 1
		if f.Seq != want {
			t.Fatalf("round %d: popped %d, want %d", round, f.Seq, want)
		}
	}
}

func TestReset(t *testing.T) {
	q := New(4)
	q.Push(mk(1))
	q.Push(mk(2))
	q.Reset()
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("Reset did not empty the FIFO")
	}
	if !q.Push(mk(3)) {
		t.Fatal("push after Reset failed")
	}
	if f, _ := q.Pop(); f.Seq != 3 {
		t.Fatal("wrong flit after Reset")
	}
}

// Property: a FIFO behaves exactly like a bounded slice queue under any
// sequence of push/pop operations.
func TestFIFOModelEquivalence(t *testing.T) {
	check := func(ops []bool, depth uint8) bool {
		d := int(depth%8) + 1
		q := New(d)
		var model []flit.Flit
		seq := 0
		for _, push := range ops {
			if push {
				f := mk(seq)
				seq++
				got := q.Push(f)
				want := len(model) < d
				if got != want {
					return false
				}
				if want {
					model = append(model, f)
				}
			} else {
				got, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if got.Seq != model[0].Seq {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New(8)
	f := mk(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(f)
		q.Pop()
	}
}

// Property: the in-place API (PushFrom / Head / Drop) behaves like a bounded
// slice queue at every depth, across wraparound, with the occupancy signals
// agreeing at every step — and a head slot keeps its bytes until the next
// push into the FIFO, even after it has been dropped.
func TestInPlaceModelEquivalence(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 7} {
		var q FIFO
		q.Init(make([]flit.Flit, depth))
		var model []flit.Flit
		var held *flit.Flit // last slot Head returned since the latest push
		var heldWant flit.Flit
		s := uint64(depth)*0x9E3779B97F4A7C15 + 1
		seq := 0
		for op := 0; op < 4000; op++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			switch s % 3 {
			case 0:
				f := flit.Flit{Seq: seq, PktID: s, Payload: uint32(op), Gen: int64(op)}
				seq++
				if got, want := q.PushFrom(&f), len(model) < depth; got != want {
					t.Fatalf("depth %d op %d: PushFrom = %v, want %v", depth, op, got, want)
				} else if want {
					model = append(model, f)
					held = nil // a push may reuse any vacated slot
				}
			case 1:
				h := q.Head()
				if (h == nil) != (len(model) == 0) {
					t.Fatalf("depth %d op %d: Head nil = %v with %d queued", depth, op, h == nil, len(model))
				}
				if h != nil {
					if *h != model[0] {
						t.Fatalf("depth %d op %d: head %+v, want %+v", depth, op, *h, model[0])
					}
					held, heldWant = h, *h
				}
			case 2:
				if len(model) == 0 {
					continue
				}
				q.Drop()
				model = model[1:]
			}
			if held != nil && *held != heldWant {
				t.Fatalf("depth %d op %d: head slot changed before the next push", depth, op)
			}
			if q.Len() != len(model) || q.Free() != depth-len(model) ||
				q.Full() != (len(model) == depth) || q.Empty() != (len(model) == 0) {
				t.Fatalf("depth %d op %d: Len/Free/Full/Empty = %d/%d/%v/%v with %d queued",
					depth, op, q.Len(), q.Free(), q.Full(), q.Empty(), len(model))
			}
		}
		if seq <= depth {
			t.Fatalf("depth %d: %d pushes never wrapped", depth, seq)
		}
	}
}

func TestDropOnEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Drop on an empty FIFO did not panic")
		}
	}()
	New(2).Drop()
}
