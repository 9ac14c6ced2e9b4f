// Package intern maps string tokens to dense uint32 IDs so the set-similarity
// hot paths (package sim's integer kernels, package simjoin's postings lists,
// package feature's per-row tokenization cache) can run merge-based integer
// comparisons instead of hashing strings per pair.
//
// ID assignment is deterministic: a Dict hands out IDs in first-intern order,
// so the same token stream always produces the same IDs. FrequencyRemap then
// reorders IDs by ascending frequency (ties broken by the lower original ID),
// which is the global ordering prefix-filter joins need: once a record's IDs
// are remapped and sorted ascending, its rarest tokens come first.
package intern

import (
	"slices"
	"sort"
)

// Dict assigns dense uint32 IDs to token strings in first-intern order. The
// zero value is not usable; call NewDict. A Dict is not safe for concurrent
// mutation — intern everything up front, then share the built dictionary
// read-only across goroutines (the DESIGN.md §5 convention).
type Dict struct {
	ids map[string]uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Len returns the number of distinct tokens interned so far.
func (d *Dict) Len() int { return len(d.ids) }

// Intern returns the ID of tok, assigning the next dense ID on first sight.
func (d *Dict) Intern(tok string) uint32 {
	if id, ok := d.ids[tok]; ok {
		return id
	}
	id := uint32(len(d.ids))
	d.ids[tok] = id
	return id
}

// Lookup returns the ID of tok without interning it.
//
//emlint:zeroalloc
//emlint:hotpath
func (d *Dict) Lookup(tok string) (uint32, bool) {
	id, ok := d.ids[tok]
	return id, ok
}

// InternTokens interns every token and returns the IDs in token order
// (duplicates preserved).
func (d *Dict) InternTokens(toks []string) []uint32 {
	out := make([]uint32, len(toks))
	for i, t := range toks {
		out[i] = d.Intern(t)
	}
	return out
}

// SortedSet interns toks and returns the ascending, duplicate-free ID set.
// The result is never nil, so callers can use nil to mean "no value" (the
// feature cache marks nulls that way).
func (d *Dict) SortedSet(toks []string) []uint32 {
	return SortedDedup(d.InternTokens(toks))
}

// SortedSetEphemeral returns the ascending, duplicate-free ID set of toks
// without mutating the dictionary: known tokens map to their interned IDs,
// and each distinct unknown token is assigned an ephemeral ID Len()+k in
// first-appearance order. Ephemeral IDs are disjoint from every interned
// ID, so set-size arithmetic (Jaccard/Dice denominators) over a mix of
// corpus and query sets stays exact — which is what lets a read-locked
// MatchOne featurize a query record that carries never-before-seen tokens.
// The result is never nil.
func (d *Dict) SortedSetEphemeral(toks []string) []uint32 {
	return sortedSetEphemeral(toks, d.Lookup, uint32(len(d.ids)))
}

// sortedSetEphemeral is both SortedSetEphemeral methods: lookup resolves
// the known tokens, and the k-th distinct unknown one gets base+k.
func sortedSetEphemeral(toks []string, lookup func(string) (uint32, bool), base uint32) []uint32 {
	out := make([]uint32, 0, len(toks))
	var eph map[string]uint32
	for _, t := range toks {
		if id, ok := lookup(t); ok {
			out = append(out, id)
			continue
		}
		if id, ok := eph[t]; ok {
			out = append(out, id)
			continue
		}
		if eph == nil {
			eph = make(map[string]uint32)
		}
		id := base + uint32(len(eph))
		eph[t] = id
		out = append(out, id)
	}
	return SortedDedup(out)
}

// SortedDedup sorts ids in place and drops duplicates, returning the
// shortened slice (which aliases ids). The result is never nil.
//
//emlint:zeroalloc
func SortedDedup(ids []uint32) []uint32 {
	if ids == nil {
		return []uint32{}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// FrequencyRemap returns a remapping of the dense ID space [0, len(freq))
// ordered by ascending frequency, ties broken by the lower original ID:
// remap[old] = new. Applying it to every record and re-sorting puts each
// record's rarest tokens first — the canonical order of the prefix-filter
// joins. The remap depends only on freq, so it is deterministic.
func FrequencyRemap(freq []int) []uint32 {
	perm := make([]uint32, len(freq)) // new ID -> old ID
	for i := range perm {
		perm[i] = uint32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		fa, fb := freq[perm[a]], freq[perm[b]]
		if fa != fb {
			return fa < fb
		}
		return perm[a] < perm[b]
	})
	remap := make([]uint32, len(freq))
	for newID, oldID := range perm {
		remap[oldID] = uint32(newID)
	}
	return remap
}
