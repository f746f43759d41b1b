// Package colstore provides the dense, struct-of-arrays backbone for
// internet-scale state: an immutable sorted index over /24 blocks that
// turns map[ipv4.Block]T tables into flat columns indexed by a small
// integer.
//
// The paper's full-Internet hitlist covers ~6.4M /24 blocks. A Go map
// keyed by block costs ~50 B per entry plus pointer-chasing on every
// lookup; a sorted index plus int16/int64 columns costs 4 B for the key
// (shared, usually aliasing an existing sorted slice) and exactly the
// column width per block, with no per-entry allocation. Every hot
// structure in the mapping pipeline — catchments, BGP assignments,
// topology block metadata — is keyed by the same dense id, so state
// flows through probe→fold→assign without rehashing.
//
// Determinism: an Index imposes one canonical order (ascending block),
// so iteration over columnar state is reproducible by construction —
// unlike map ranges, which randomize per run.
package colstore

import (
	"fmt"
	"math/bits"

	"verfploeter/internal/ipv4"
)

// Index is an immutable mapping between /24 blocks and dense ids
// 0..Len()-1, in ascending block order. The zero value is an empty
// index. Indexes are safe for concurrent readers.
type Index struct {
	blocks []ipv4.Block
}

// NewIndex builds an index over the given blocks. The slice must be
// strictly ascending (sorted, no duplicates) — the invariant every
// producer in this codebase already maintains (hitlists sort by address
// with one representative per block; topologies sort blocks at
// Finalize). The slice is aliased, not copied: callers hand over
// ownership and must not mutate it afterwards. A violation panics,
// because a mis-sorted index silently corrupts every column built on it.
func NewIndex(blocks []ipv4.Block) *Index {
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			panic(fmt.Sprintf("colstore: blocks not strictly ascending at %d: %v >= %v",
				i, blocks[i-1], blocks[i]))
		}
	}
	return &Index{blocks: blocks}
}

// Len returns the number of indexed blocks.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.blocks)
}

// At returns the block with dense id i.
func (ix *Index) At(i int) ipv4.Block { return ix.blocks[i] }

// Blocks returns the underlying ascending block slice. Callers must
// treat it as read-only.
func (ix *Index) Blocks() []ipv4.Block {
	if ix == nil {
		return nil
	}
	return ix.blocks
}

// Of returns the dense id of block b, or -1 when b is not indexed.
// Branch-light binary search: ~log2(n) compares over contiguous memory,
// no closure, no bounds surprises.
func (ix *Index) Of(b ipv4.Block) int {
	if ix == nil {
		return -1
	}
	lo, hi := 0, len(ix.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.blocks[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.blocks) && ix.blocks[lo] == b {
		return lo
	}
	return -1
}

// Contains reports whether b is indexed.
func (ix *Index) Contains(b ipv4.Block) bool { return ix.Of(b) >= 0 }

// Bitset is a dense set of ids over [0, Size()): one bit per id, so a
// membership test is a single word load and iteration is ascending by
// construction. It is the id-keyed counterpart of ipv4.BlockSet for
// sets whose members already have dense ids (hitlist entries, topology
// blocks). The zero value is an empty set over an empty universe.
type Bitset struct {
	words []uint64
	size  int
	n     int
}

// NewBitset returns an empty set over ids [0, size).
func NewBitset(size int) *Bitset {
	return &Bitset{words: make([]uint64, (size+63)/64), size: size}
}

// Size returns the universe size (one more than the largest valid id).
func (s *Bitset) Size() int { return s.size }

// Len returns the number of members.
func (s *Bitset) Len() int { return s.n }

// Add inserts id, reporting whether it was newly added. id must be in
// [0, Size()).
func (s *Bitset) Add(id int) bool {
	w, bit := &s.words[id>>6], uint64(1)<<(uint(id)&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	s.n++
	return true
}

// Contains reports whether id is a member; ids outside the universe
// are not.
func (s *Bitset) Contains(id int) bool {
	return uint(id) < uint(s.size) && s.words[id>>6]&(uint64(1)<<(uint(id)&63)) != 0
}

// Range calls fn for every member in ascending order, stopping early if
// fn returns false.
func (s *Bitset) Range(fn func(id int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			if !fn(wi<<6 | bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// SetOf returns the ids of the indexed blocks in set, as a Bitset over
// [0, Len()); blocks the index does not hold are dropped.
func (ix *Index) SetOf(set *ipv4.BlockSet) *Bitset {
	out := NewBitset(ix.Len())
	set.Range(func(b ipv4.Block) bool {
		if id := ix.Of(b); id >= 0 {
			out.Add(id)
		}
		return true
	})
	return out
}
