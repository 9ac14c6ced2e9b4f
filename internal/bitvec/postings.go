package bitvec

import "slices"

// postingsFlipMin is the list length at which postings flip from a sorted
// array to a bitmap: a list this long costs more to re-scan per probe than
// a bitmap walk of the same members. It is a constant, not an option: the
// batch joins and the serving core have only ever run this one value, and
// which side of it a list falls on is decided by its length alone.
const postingsFlipMin = 512

// Postings is one token's ascending, duplicate-free ID list — the single
// postings representation under the set-similarity joins (IDs are
// size-sorted record positions) and the serving corpus (IDs are slots).
// Short lists are a sorted array; from postingsFlipMin members on, the low
// members live in a frozen bitmap and only recent appends in a sorted
// tail, every tail member above every bitmap member.
//
// A Postings value is immutable: With returns a successor and leaves the
// receiver valid for whoever still holds it, which is what lets serve
// swap lists under lock-free readers. A nil *Postings is the empty list.
type Postings struct {
	bits *Set
	tail []uint32
}

// postingsFromSorted builds a list from ascending, duplicate-free ids. It
// takes ownership of ids: the caller must not modify the slice afterwards.
func postingsFromSorted(ids []uint32) *Postings {
	if len(ids) < postingsFlipMin {
		return &Postings{tail: ids}
	}
	return &Postings{bits: FromSorted(ids)}
}

// BuildPostings is the one postings builder: list t holds, ascending,
// every index i whose set holds t. Each set must be duplicate-free with
// members below nids; an ID no set holds gets a nil (empty) list.
func BuildPostings(sets [][]uint32, nids int) []*Postings {
	lists := make([][]uint32, nids)
	for i, set := range sets {
		for _, t := range set {
			lists[t] = append(lists[t], uint32(i))
		}
	}
	posts := make([]*Postings, nids)
	for t, list := range lists {
		if list != nil {
			posts[t] = postingsFromSorted(list)
		}
	}
	return posts
}

// Len returns the number of members.
func (p *Postings) Len() int {
	if p == nil {
		return 0
	}
	if p.bits == nil {
		return len(p.tail)
	}
	return p.bits.Len() + len(p.tail)
}

// With returns the list extended by id, which must exceed every member.
// The tail may share backing with the receiver's — the append only writes
// beyond the receiver's length — so With may be called only on the newest
// version of a list (one writer, linear history). Once the tail reaches
// postingsFlipMin and a fixed fraction of the frozen bitmap, everything is
// merged into a fresh bitmap: the old one is never mutated (readers hold
// it), and the geometric trigger keeps the amortized merge cost per
// append constant.
func (p *Postings) With(id uint32) *Postings {
	np := &Postings{}
	if p != nil {
		*np = *p
	}
	np.tail = append(np.tail, id)
	if len(np.tail) < postingsFlipMin || (np.bits != nil && len(np.tail)*8 < np.bits.Len()) {
		return np
	}
	all := make([]uint32, 0, np.Len())
	if np.bits != nil {
		all = np.bits.AppendTo(all)
	}
	return &Postings{bits: FromSorted(append(all, np.tail...))}
}

// ForEachIn calls fn for every member in [lo, hi) in ascending order,
// stopping early when fn returns false. The joins pass a probe's size
// window; serve passes [0, snapshot horizon) so that IDs appended after a
// snapshot was published stay invisible to its readers.
//
//emlint:zeroalloc
func (p *Postings) ForEachIn(lo, hi uint32, fn func(id uint32) bool) {
	if p == nil {
		return
	}
	if p.bits != nil && !p.bits.ForEachIn(lo, hi, fn) {
		return
	}
	k, _ := slices.BinarySearch(p.tail, lo)
	for ; k < len(p.tail) && p.tail[k] < hi; k++ {
		if !fn(p.tail[k]) {
			return
		}
	}
}
