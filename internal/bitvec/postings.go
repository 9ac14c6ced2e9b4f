// Package bitvec provides the one postings-list representation (Postings,
// BuildPostings) and the one per-probe overlap counter (Counter,
// counter.go) — what the set-similarity joins (package simjoin), the
// serving core (package serve) and table.WholeTupleIndex index tokens and
// count overlaps with. A postings list is a sorted []uint32, the same form
// every token set in the repository takes (package intern).
package bitvec

import "slices"

// Postings is one token's ascending, duplicate-free ID list — the single
// postings representation under the set-similarity joins (IDs are
// size-sorted record positions) and the serving corpus (IDs are slots).
//
// A Postings value is immutable: With returns a successor and leaves the
// receiver valid for whoever still holds it, which is what lets serve
// swap lists under lock-free readers. A nil *Postings is the empty list.
type Postings struct {
	ids []uint32
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
			posts[t] = &Postings{ids: list}
		}
	}
	return posts
}

// Len returns the number of members.
func (p *Postings) Len() int {
	if p == nil {
		return 0
	}
	return len(p.ids)
}

// With returns the list extended by id, which must exceed every member.
// The successor may share backing with the receiver — the append only
// writes beyond the receiver's length, which no reader of the receiver
// looks at — so With may be called only on the newest version of a list
// (one writer, linear history).
func (p *Postings) With(id uint32) *Postings {
	if p == nil {
		return &Postings{ids: []uint32{id}}
	}
	return &Postings{ids: append(p.ids, id)}
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
	k, _ := slices.BinarySearch(p.ids, lo)
	for ; k < len(p.ids) && p.ids[k] < hi; k++ {
		if !fn(p.ids[k]) {
			return
		}
	}
}
