package ring

import (
	"slices"
	"testing"
)

// TestRingBounded: pushing twice the capacity keeps exactly the newest
// capacity values, oldest first, and counts every overwrite.
func TestRingBounded(t *testing.T) {
	for _, capacity := range []int{1, 5, 16, 100, 256} {
		r := New[int](capacity)
		var overwrote int64
		for i := 0; i < 2*capacity; i++ {
			if r.Push(i) {
				overwrote++
			}
		}
		want := make([]int, 0, capacity)
		for i := capacity; i < 2*capacity; i++ {
			want = append(want, i)
		}
		if got := r.AppendTo(nil); !slices.Equal(got, want) {
			t.Errorf("cap %d: held %v, want %v", capacity, got, want)
		}
		for i := range want {
			if r.At(i) != want[i] {
				t.Errorf("cap %d: At(%d) = %d, want %d", capacity, i, r.At(i), want[i])
			}
		}
		if r.Len() != capacity || r.Overwritten() != int64(capacity) || overwrote != int64(capacity) {
			t.Errorf("cap %d: Len %d, Overwritten %d, Push reported %d; want %d each",
				capacity, r.Len(), r.Overwritten(), overwrote, capacity)
		}
	}
}

// TestRingGrowsByDoubling: storage starts empty and grows 16, 32, ...
// while the ring fills, stopping at the capacity, with order kept.
func TestRingGrowsByDoubling(t *testing.T) {
	if r := New[int](40); r.buf != nil {
		t.Fatal("New allocated before the first Push")
	}
	for i, wantSlots := range map[int]int{1: 16, 16: 16, 17: 32, 33: 40, 100: 40} {
		r := New[int](40)
		for v := 0; v < i; v++ {
			r.Push(v)
		}
		if len(r.buf) != wantSlots {
			t.Errorf("after %d pushes: %d slots, want %d", i, len(r.buf), wantSlots)
		}
		if got := r.AppendTo(nil); got[0] != max(i-40, 0) || got[len(got)-1] != i-1 {
			t.Errorf("after %d pushes: held %v", i, got)
		}
	}
}
