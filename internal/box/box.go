// Package box hands out result cells as interface values that share one
// typed array per column, instead of one heap object per cell.
//
// Go boxes every string, integer, float, time and slice on conversion to
// any: the interface's data word must point at a copy nobody will write,
// and no safe API can point it at memory that already exists. A Slab is
// such memory. Add appends a cell to the slab's array and returns an
// interface whose type word is the cell's type and whose data word points
// at the appended element. This is sound because
//
//   - Cell admits no pointer-shaped type, so the runtime always reaches a
//     cell through the data word and never keeps the value in the word;
//   - an element is never written after Add boxed it: Add only appends, a
//     full array is replaced rather than overwritten, and the array is
//     reachable only through the interfaces Add returned;
//   - the data word is an ordinary pointer into the array, so the garbage
//     collector keeps the whole array alive while any of its cells is, and
//     scans the strings and slices in it by the array's own type.
//
// This is the only code in the module that writes an interface's words.
package box

import (
	"time"
	"unsafe"
)

// Cell lists the kinds a Slab holds. None of them is pointer-shaped.
type Cell interface {
	~string | ~int64 | ~uint64 | ~float64 | ~[]byte | time.Time
}

// eface is the runtime layout of an empty interface.
type eface struct{ typ, data unsafe.Pointer }

// Slab is the backing array of one column's cells.
type Slab[T Cell] struct {
	typ  unsafe.Pointer
	vals []T
}

// New returns a slab with room for n cells.
func New[T Cell](n int) Slab[T] {
	var zero T
	x := any(zero) // allocates only for a time.Time; only the type word is kept
	return Slab[T]{typ: (*eface)(unsafe.Pointer(&x)).typ, vals: make([]T, 0, n)}
}

// Add appends v and returns it as an interface value that refers to the
// slab's copy. It is indistinguishable from any(v).
func (s *Slab[T]) Add(v T) (x any) {
	s.vals = append(s.vals, v)
	e := (*eface)(unsafe.Pointer(&x))
	e.typ, e.data = s.typ, unsafe.Pointer(&s.vals[len(s.vals)-1])
	return x
}
