// Package chunk provides an append-only list that grows by adding
// chunks instead of by copying. An append never moves what is already
// stored, so a long log costs its elements once rather than the several
// times over of a slice's repeated regrowth, and no chunk outgrows the
// allocator's small size classes.
package chunk

import (
	"math/bits"
	"slices"
)

const (
	firstChunk = 16  // elements in the first chunk
	maxChunk   = 256 // elements in a chunk at most; chunks double up to it
	// rampChunks are the chunks smaller than maxChunk (16, 32, 64, 128),
	// holding rampLen elements.
	rampChunks = 4
	rampLen    = firstChunk * (1<<rampChunks - 1)
)

// List is an append-only sequence of T. The zero value is an empty list.
// A List is not safe for concurrent use.
type List[T any] struct {
	chunks [][]T // every chunk but the last is full
	n      int
}

// Append adds v at the end of the list.
func (l *List[T]) Append(v T) {
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		size := firstChunk
		if k > 0 {
			size = min(2*cap(l.chunks[k-1]), maxChunk)
		}
		l.chunks = append(l.chunks, make([]T, 0, size))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], v)
	l.n++
}

// At returns the i-th element, 0 ≤ i < Len(), in place: the pointer stays
// valid as the list grows.
func (l *List[T]) At(i int) *T {
	if i >= rampLen {
		i -= rampLen
		return &l.chunks[rampChunks+i/maxChunk][i%maxChunk]
	}
	k := bits.Len(uint(i/firstChunk+1)) - 1
	return &l.chunks[k][i-firstChunk*(1<<k-1)]
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.n }

// AppendTo appends the elements, in order, to dst and returns the
// extended slice; it grows dst once.
func (l *List[T]) AppendTo(dst []T) []T {
	if l.n == 0 {
		return dst
	}
	dst = slices.Grow(dst, l.n)
	for _, c := range l.chunks {
		dst = append(dst, c...)
	}
	return dst
}
