// Fixture for the hotpath analyzer.
package hotpath

import "fmt"

type point struct{ x, y int }

func cleanup() {}

//quarc:hotpath
func bad(buf []int, n int) []int {
	fmt.Println(n) // want "fmt.Println in hot path formats through interfaces"
	f := func() {} // want "closure literal in hot path"
	_ = f
	p := &point{} // want "&composite literal in hot path escapes to the heap"
	_ = p
	s := []int{n} // want "slice/map composite literal allocates in hot path"
	_ = s
	defer cleanup()         // want "defer in hot path"
	go cleanup()            // want "goroutine spawn in hot path"
	_ = any(n)              // want "conversion to interface type .* boxes the value"
	grown := append(buf, n) // want "append grows a slice .buf. other than the one assigned back .grown."
	_ = grown
	return buf
}

//quarc:hotpath
func good(buf []int, n int, v point) []int {
	buf = append(buf, n) // self-append reuses the backing array
	_ = point{x: n}      // value struct literal stays on the stack
	_ = v.x
	return buf
}

// wide is 72 bytes under the gc/amd64 layout: one word over the copy limit.
type wide struct{ w [9]int64 }

// line is exactly the 64-byte limit and may travel by value.
type line struct{ w [8]int64 }

func pop() (wide, bool) { return wide{}, true }

//quarc:hotpath
func copies(in wide, q []wide, p *wide) wide { // want "parameter copies a 72-byte wide by value" "result copies a 72-byte wide by value"
	a := q[0]      // want "assignment copies a 72-byte wide by value"
	a = *p         // want "assignment copies a 72-byte wide by value"
	v, ok := pop() // want "assignment copies a 72-byte wide by value"
	_, _ = v, ok
	for _, e := range q { // want "range value copies a 72-byte wide by value"
		_ = e.w[0]
	}
	return a
}

//quarc:hotpath
func copyFree(in *wide, q []wide, l line) *wide {
	m := l                 // a struct within the limit copies freely
	fresh := wide{w: in.w} // a literal is built in place, not copied
	_, ok := pop()         // a discarded result lands nowhere
	_, _, _ = m, fresh, ok
	for i := range q { // indexing reads the element where it lies
		_ = q[i].w[0]
	}
	return &q[0]
}

//quarc:hotpath
func allowedCopy(dst, src *wide) {
	//quarc:allow hotpath: the one copy this path is designed around
	*dst = *src
}

// Unannotated functions may do anything.
func cold() {
	fmt.Println("cold path")
}
