// Package ring is the bounded buffer behind every recorder in SPIRE: an
// overwrite-oldest ring that grows by doubling from 16 slots up to its
// capacity, so a ring that is never filled never pays for its bound.
package ring

// Ring keeps the newest Cap() values pushed, oldest first. It is not
// synchronized; callers hold their own locks.
type Ring[T any] struct {
	buf         []T
	head, n     int // index of the oldest value, and the number held
	max         int
	overwritten int64
}

// New returns an empty ring holding at most capacity values (at least
// one). It allocates nothing until the first Push.
func New[T any](capacity int) Ring[T] {
	return Ring[T]{max: max(capacity, 1)}
}

// Push appends v. At capacity it overwrites the oldest value and reports
// true.
func (r *Ring[T]) Push(v T) bool {
	if r.n == len(r.buf) && len(r.buf) < r.max {
		grown := make([]T, min(max(2*len(r.buf), 16), r.max))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	if r.n == len(r.buf) {
		r.buf[r.head] = v
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.overwritten++
		return true
	}
	r.buf[r.index(r.n)] = v
	r.n++
	return false
}

// index maps the i-th oldest position to its slot.
func (r *Ring[T]) index(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th oldest value held, 0 <= i < Len().
func (r *Ring[T]) At(i int) T { return r.buf[r.index(i)] }

// AppendTo appends the values held to dst, oldest first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if end := r.head + r.n; end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head+r.n-len(r.buf)]...)
}

// Overwritten returns how many values Push has overwritten.
func (r *Ring[T]) Overwritten() int64 { return r.overwritten }
