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
