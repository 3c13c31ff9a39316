package chunk

import (
	"slices"
	"testing"
)

func TestListKeepsOrderAcrossChunks(t *testing.T) {
	var l List[int]
	if got := l.AppendTo(nil); got != nil {
		t.Fatalf("empty list: %v, want nil", got)
	}
	var want []int
	for i := 0; i < 3*maxChunk+firstChunk+7; i++ {
		l.Append(i)
		want = append(want, i)
		if l.Len() != len(want) {
			t.Fatalf("Len = %d after %d appends", l.Len(), len(want))
		}
	}
	if len(l.chunks) < 3 {
		t.Fatalf("%d chunks, want at least 3", len(l.chunks))
	}
	for i, c := range l.chunks[:len(l.chunks)-1] {
		if len(c) != cap(c) || cap(c) > maxChunk {
			t.Fatalf("chunk %d: len %d cap %d", i, len(c), cap(c))
		}
	}
	if got := l.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatal("AppendTo(nil) lost the append order")
	}
	if got := l.AppendTo([]int{-1}); got[0] != -1 || !slices.Equal(got[1:], want) {
		t.Fatal("AppendTo must keep what dst held")
	}
	if rampLen != maxChunk-firstChunk || cap(l.chunks[rampChunks]) != maxChunk || cap(l.chunks[rampChunks-1]) == maxChunk {
		t.Fatalf("the ramp of %d chunks holds %d elements; the chunks are %d, %d", rampChunks, rampLen,
			cap(l.chunks[rampChunks-1]), cap(l.chunks[rampChunks]))
	}
	for i, v := range want {
		if got := *l.At(i); got != v {
			t.Fatalf("At(%d) = %d, want %d", i, got, v)
		}
	}
}

func TestListAppendNeverCopies(t *testing.T) {
	var l List[int]
	l.Append(0)
	first := &l.chunks[0][0]
	for i := 1; i < 4*maxChunk; i++ {
		l.Append(i)
	}
	if &l.chunks[0][0] != first || *first != 0 {
		t.Fatal("an append moved a stored element")
	}
}
