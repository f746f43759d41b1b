package colstore

import (
	"testing"

	"verfploeter/internal/ipv4"
)

func TestIndexOf(t *testing.T) {
	blocks := []ipv4.Block{1, 5, 9, 200, 70000, 1 << 23}
	ix := NewIndex(blocks)
	if ix.Len() != len(blocks) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(blocks))
	}
	for i, b := range blocks {
		if got := ix.Of(b); got != i {
			t.Errorf("Of(%v) = %d, want %d", b, got, i)
		}
		if ix.At(i) != b {
			t.Errorf("At(%d) = %v, want %v", i, ix.At(i), b)
		}
	}
	for _, b := range []ipv4.Block{0, 2, 8, 199, 201, 1<<23 + 1} {
		if got := ix.Of(b); got != -1 {
			t.Errorf("Of(%v) = %d, want -1", b, got)
		}
		if ix.Contains(b) {
			t.Errorf("Contains(%v) = true, want false", b)
		}
	}
}

func TestIndexEmptyAndNil(t *testing.T) {
	var nilIx *Index
	if nilIx.Len() != 0 || nilIx.Of(5) != -1 || nilIx.Blocks() != nil {
		t.Error("nil index should behave as empty")
	}
	empty := NewIndex(nil)
	if empty.Len() != 0 || empty.Of(5) != -1 {
		t.Error("empty index should miss everything")
	}
}

func TestIndexRejectsUnsorted(t *testing.T) {
	for _, bad := range [][]ipv4.Block{
		{2, 1},
		{1, 1},
		{1, 2, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(%v) did not panic", bad)
				}
			}()
			NewIndex(bad)
		}()
	}
}

// TestBitset: membership, counting, ascending Range across word
// boundaries, and SetOf's block-to-id conversion (unindexed blocks
// dropped).
func TestBitset(t *testing.T) {
	s := NewBitset(130)
	want := []int{0, 63, 64, 65, 127, 129}
	for _, id := range []int{129, 0, 64, 63, 65, 127, 64} {
		s.Add(id)
	}
	if s.Len() != len(want) || s.Size() != 130 {
		t.Fatalf("Len=%d Size=%d, want %d 130", s.Len(), s.Size(), len(want))
	}
	var got []int
	s.Range(func(id int) bool { got = append(got, id); return true })
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	for _, id := range []int{-1, 1, 62, 128, 130, 1 << 20} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
	if s.Add(0) {
		t.Error("Add of a member reported new")
	}

	ix := NewIndex([]ipv4.Block{3, 8, 21})
	bs := ipv4.NewBlockSet(4)
	for _, b := range []ipv4.Block{21, 3, 99} {
		bs.Add(b)
	}
	sub := ix.SetOf(bs)
	if sub.Size() != 3 || sub.Len() != 2 || !sub.Contains(0) || sub.Contains(1) || !sub.Contains(2) {
		t.Errorf("SetOf = size %d len %d, want ids {0, 2} of 3", sub.Size(), sub.Len())
	}
}
