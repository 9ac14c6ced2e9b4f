// Package bitvec provides a roaring-style compressed bitset over dense
// uint32 IDs (Set) and, built on it, the one postings-list representation
// (Postings, postings.go; BuildPostings), and the one per-probe overlap
// counter (Counter, counter.go) — what the set-similarity joins (package
// simjoin), the serving core (package serve) and table.WholeTupleIndex
// index tokens and count overlaps with.
//
// A Set partitions the 32-bit ID space into 64Ki-ID blocks keyed by the
// high 16 bits. Each populated block holds one container, chosen by
// cardinality: at most ArrayMaxCard members stay a sorted []uint16 array
// (2 bytes/member), more flip to a packed []uint64 bitmap (fixed 8 KiB).
// This is the hybrid of Roaring Bitmaps. A Set is only ever built whole,
// enumerated and windowed (FromSorted, Len, AppendTo, ForEachIn): set
// intersection is the sorted-merge kernel of package sim, on slices.
package bitvec

import (
	"math/bits"
	"sort"
)

const (
	// blockShift and blockMask split an ID into (block key, low bits).
	blockShift = 16
	blockMask  = 1<<blockShift - 1
	// wordsPerBlock is the size of a bitmap container: 64Ki bits.
	wordsPerBlock = 1 << (blockShift - 6)
	// ArrayMaxCard is the container flip point: a block with at most this
	// many members is a sorted []uint16 array (<= 8 KiB, same as the
	// bitmap), above it a packed bitmap. 4096 is the classic roaring
	// threshold where the two representations cross in size.
	ArrayMaxCard = 4096
)

// container is one populated 64Ki-ID block: exactly one of arr and bits
// is non-nil.
type container struct {
	key  uint16   // block key: ID >> 16
	card int32    // member count
	arr  []uint16 // sorted low-16-bit members, len == card
	bits []uint64 // packed bitmap of low-16-bit members, len == wordsPerBlock
}

// Set is a compressed set of uint32 IDs. Build one with FromSorted; the
// zero value is the empty set. A Set is immutable once built, so it is
// shared read-only across goroutines (the DESIGN.md §5 convention);
// Postings.With grows a list by building a fresh Set, never by patching
// one a reader may hold.
type Set struct {
	cons []container
	n    int
}

// FromSorted builds a Set from ascending, duplicate-free IDs (the
// representation intern.SortedDedup produces). The input is not retained.
func FromSorted(ids []uint32) *Set {
	s := &Set{n: len(ids)}
	for lo := 0; lo < len(ids); {
		key := uint16(ids[lo] >> blockShift)
		hi := lo + 1
		for hi < len(ids) && uint16(ids[hi]>>blockShift) == key {
			hi++
		}
		c := container{key: key, card: int32(hi - lo)}
		if hi-lo > ArrayMaxCard {
			c.bits = make([]uint64, wordsPerBlock)
			for _, id := range ids[lo:hi] {
				low := id & blockMask
				c.bits[low>>6] |= 1 << (low & 63)
			}
		} else {
			c.arr = make([]uint16, hi-lo)
			for k, id := range ids[lo:hi] {
				c.arr[k] = uint16(id & blockMask)
			}
		}
		s.cons = append(s.cons, c)
		lo = hi
	}
	return s
}

// Len returns the number of members.
func (s *Set) Len() int { return s.n }

// AppendTo appends the members in ascending order to dst and returns the
// extended slice — the round-trip back to the sorted-slice representation
// the merge kernels consume.
func (s *Set) AppendTo(dst []uint32) []uint32 {
	for _, c := range s.cons {
		base := uint32(c.key) << blockShift
		if c.bits != nil {
			for w, word := range c.bits {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					dst = append(dst, base|uint32(w<<6+b))
					word &= word - 1
				}
			}
		} else {
			for _, low := range c.arr {
				dst = append(dst, base|uint32(low))
			}
		}
	}
	return dst
}

// ForEachIn calls fn for every member in [lo, hi) in ascending order,
// stopping early when fn returns false; it reports whether the walk ran
// to completion. It is the bitmap half of Postings.ForEachIn.
func (s *Set) ForEachIn(lo, hi uint32, fn func(id uint32) bool) bool {
	if hi <= lo {
		return true
	}
	loKey := uint16(lo >> blockShift)
	ci := sort.Search(len(s.cons), func(k int) bool { return s.cons[k].key >= loKey })
	for ; ci < len(s.cons); ci++ {
		c := &s.cons[ci]
		base := uint32(c.key) << blockShift
		if base >= hi {
			return true
		}
		if c.bits != nil {
			wLo := 0
			if base < lo {
				wLo = int(lo-base) >> 6
			}
			for w := wLo; w < wordsPerBlock; w++ {
				word := c.bits[w]
				if word == 0 {
					continue
				}
				wb := base | uint32(w<<6)
				if wb >= hi {
					return true
				}
				for word != 0 {
					b := bits.TrailingZeros64(word)
					id := wb | uint32(b)
					word &= word - 1
					if id < lo {
						continue
					}
					if id >= hi {
						return true
					}
					if !fn(id) {
						return false
					}
				}
			}
		} else {
			k := 0
			if base < lo {
				low := uint16(lo & blockMask)
				k = sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= low })
			}
			for ; k < len(c.arr); k++ {
				id := base | uint32(c.arr[k])
				if id >= hi {
					return true
				}
				if !fn(id) {
					return false
				}
			}
		}
	}
	return true
}
