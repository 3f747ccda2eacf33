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
