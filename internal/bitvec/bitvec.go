// Package bitvec provides a roaring-style compressed bitset over dense
// uint32 IDs (Set) and, built on it, the one postings-list representation
// (Postings, postings.go) that both the set-similarity joins (package
// simjoin) and the serving core (package serve) index their tokens with.
// Set also backs simjoin's dense-record verification.
//
// A Set partitions the 32-bit ID space into 64Ki-ID blocks keyed by the
// high 16 bits. Each populated block holds one container, chosen by
// cardinality: at most ArrayMaxCard members stay a sorted []uint16 array
// (2 bytes/member), more flip to a packed []uint64 bitmap (fixed 8 KiB,
// word-level AND + popcount intersection). This is the hybrid of Roaring
// Bitmaps, and the layout Large-Scale Collective Entity Matching uses to
// carry similarity joins to web scale: after intern.FrequencyRemap orders
// token IDs rarest-first, the high-frequency tokens every dense record
// shares cluster into the top blocks, exactly where bitmap containers pay.
//
// All intersection kernels are allocation-free (pinned by AllocsPerRun
// guards in bitvec_test.go) and agree bit for bit with the sorted-merge
// kernels of package sim — the testing/quick properties in the same file
// are the equivalence oracle.
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

// AndCountBounded returns |a ∩ b| when it is at least need, or -1 as soon
// as the remaining containers cannot reach need — the container-granular
// analogue of sim.IntersectSortedU32Bounded's suffix early exit. A
// non-negative return is always the exact intersection size (so need 0
// is the plain count). Containers intersect pairwise by block key;
// bitmap×bitmap blocks run the word-level AND + popcount kernel.
//
//emlint:zeroalloc
func AndCountBounded(a, b *Set, need int) int {
	inter := 0
	i, j := 0, 0
	remA, remB := a.n, b.n
	for i < len(a.cons) && j < len(b.cons) {
		rem := remA
		if remB < rem {
			rem = remB
		}
		if inter+rem < need {
			return -1
		}
		ca, cb := &a.cons[i], &b.cons[j]
		switch {
		case ca.key == cb.key:
			inter += containerAndCount(ca, cb)
			remA -= int(ca.card)
			remB -= int(cb.card)
			i++
			j++
		case ca.key < cb.key:
			remA -= int(ca.card)
			i++
		default:
			remB -= int(cb.card)
			j++
		}
	}
	return inter
}

// containerAndCount intersects two containers with the same block key.
func containerAndCount(a, b *container) int {
	switch {
	case a.bits != nil && b.bits != nil:
		// The hot kernel: 1024 word ANDs + popcounts, no branches.
		inter := 0
		for w, word := range a.bits {
			inter += bits.OnesCount64(word & b.bits[w])
		}
		return inter
	case a.bits != nil:
		return arrayBitmapAndCount(b.arr, a.bits)
	case b.bits != nil:
		return arrayBitmapAndCount(a.arr, b.bits)
	default:
		return arrayAndCount(a.arr, b.arr)
	}
}

// arrayBitmapAndCount probes each array member against the bitmap.
func arrayBitmapAndCount(arr []uint16, bm []uint64) int {
	inter := 0
	for _, low := range arr {
		if bm[low>>6]&(1<<(low&63)) != 0 {
			inter++
		}
	}
	return inter
}

// arrayAndCount merges two sorted uint16 arrays.
func arrayAndCount(a, b []uint16) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// AndCountArrayBounded returns |s ∩ ids| for ascending, duplicate-free
// ids — the asymmetric kernel the joins use to verify a small probe set
// against a dense indexed record without materializing the probe as a
// Set. It walks ids block-run by block-run, advancing the container
// cursor once per run rather than once per ID, with the suffix early exit
// of sim.IntersectSortedU32Bounded: it returns -1 as soon as the
// remaining ids cannot lift the intersection to need. A non-negative
// return is always the exact intersection size (it may still be below
// need when the walk completes before the bound triggers).
//
//emlint:zeroalloc
func AndCountArrayBounded(s *Set, ids []uint32, need int) int {
	inter := 0
	ci := 0
	for lo := 0; lo < len(ids); {
		if inter+len(ids)-lo < need {
			return -1
		}
		key := uint16(ids[lo] >> blockShift)
		hi := lo + 1
		for hi < len(ids) && uint16(ids[hi]>>blockShift) == key {
			hi++
		}
		for ci < len(s.cons) && s.cons[ci].key < key {
			ci++
		}
		if ci == len(s.cons) {
			return inter
		}
		if c := &s.cons[ci]; c.key == key {
			inter += containerRunAndCount(c, ids[lo:hi])
		}
		lo = hi
	}
	return inter
}

// containerRunAndCount intersects one container against one block run of
// IDs (all sharing the container's block key).
func containerRunAndCount(c *container, run []uint32) int {
	if c.bits != nil {
		inter := 0
		for _, id := range run {
			low := id & blockMask
			if c.bits[low>>6]&(1<<(low&63)) != 0 {
				inter++
			}
		}
		return inter
	}
	return arrayRunAndCount(c.arr, run)
}

// arrayRunAndCount merges a container array against one block run of IDs.
func arrayRunAndCount(arr []uint16, run []uint32) int {
	inter := 0
	i, j := 0, 0
	for i < len(arr) && j < len(run) {
		low := uint16(run[j] & blockMask)
		switch {
		case arr[i] == low:
			inter++
			i++
			j++
		case arr[i] < low:
			i++
		default:
			j++
		}
	}
	return inter
}
