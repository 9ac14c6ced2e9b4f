package intern

import "sync/atomic"

// SnapDict is a single-writer dictionary whose read side is a lock-free
// open-addressing table. One goroutine (the owner) calls Intern; any number
// of goroutines may concurrently resolve tokens through a View captured at a
// publication point. This is the dictionary behind the serving corpus
// snapshots (DESIGN.md §9): the writer interns while queries run, and each
// published snapshot carries a View that sees exactly the tokens interned
// before the snapshot was built.
//
// The zero value is not usable; call NewSnapDict.
type SnapDict struct {
	ids map[string]uint32 // writer-private
	tbl atomic.Pointer[lfTable]
	n   atomic.Uint32 // tokens fully inserted into tbl
}

// lfTable is an open-addressing hash table with linear probing. Slots
// transition nil -> *lfEntry exactly once and entries are immutable, so
// readers only ever observe a slot as empty or as a finished entry. The
// single writer keeps the load factor at or below 1/2 and grows by building
// a fresh table, so probe chains are bounded and never relink.
type lfTable struct {
	mask  uint32
	slots []atomic.Pointer[lfEntry]
}

type lfEntry struct {
	tok string
	id  uint32
}

// View is a frozen read handle over a SnapDict: the table pointer and the
// number of tokens interned at capture time. Entries with id >= n were
// interned after the capture and are reported as unknown, so a View behaves
// exactly like an immutable dictionary of its first n tokens even while the
// writer keeps interning into the shared table. The zero View is a valid
// empty dictionary.
type View struct {
	tbl *lfTable
	n   uint32
}

const snapDictMinTable = 64

// NewSnapDict returns an empty single-writer dictionary.
func NewSnapDict() *SnapDict {
	d := &SnapDict{ids: make(map[string]uint32)}
	t := &lfTable{mask: snapDictMinTable - 1, slots: make([]atomic.Pointer[lfEntry], snapDictMinTable)}
	d.tbl.Store(t)
	return d
}

// Len returns the number of distinct tokens interned so far. Writer-side
// only.
func (d *SnapDict) Len() int { return len(d.ids) }

// Intern returns the ID of tok, assigning the next dense ID on first sight.
// Must be called from the single owner goroutine only.
func (d *SnapDict) Intern(tok string) uint32 {
	if id, ok := d.ids[tok]; ok {
		return id
	}
	id := uint32(len(d.ids))
	d.ids[tok] = id
	t := d.tbl.Load()
	if uint64(len(d.ids))*2 > uint64(len(t.slots)) {
		t = d.grow(t)
	}
	t.insert(&lfEntry{tok: tok, id: id})
	d.n.Store(uint32(len(d.ids)))
	return id
}

// InternTokens interns every token and returns the IDs in token order
// (duplicates preserved).
func (d *SnapDict) InternTokens(toks []string) []uint32 {
	out := make([]uint32, len(toks))
	for i, t := range toks {
		out[i] = d.Intern(t)
	}
	return out
}

// SortedSet interns toks and returns the ascending, duplicate-free ID set.
// The result is never nil.
func (d *SnapDict) SortedSet(toks []string) []uint32 {
	return SortedDedup(d.InternTokens(toks))
}

// View captures a frozen read handle over the tokens interned so far. The
// returned View is safe to use concurrently with further Intern calls.
//
// Capture order matters: n is loaded before the table pointer, so the table
// the View holds is the same generation or newer than the count — and a
// newer table always contains every entry of the older one.
func (d *SnapDict) View() View {
	n := d.n.Load()
	return View{tbl: d.tbl.Load(), n: n}
}

// grow builds a table of twice the size holding every current entry, then
// publishes it. Old views keep their old table, which stops receiving
// writes; every token those views may legally resolve (id < view.n) was
// already in it.
func (d *SnapDict) grow(old *lfTable) *lfTable {
	size := uint32(len(old.slots)) * 2
	t := &lfTable{mask: size - 1, slots: make([]atomic.Pointer[lfEntry], size)}
	for i := range old.slots {
		if e := old.slots[i].Load(); e != nil {
			t.insert(e)
		}
	}
	d.tbl.Store(t)
	return t
}

// insert stores e in the first free slot of its probe chain. Single writer:
// no CAS needed, but the store is atomic so concurrent readers never see a
// torn slot.
func (t *lfTable) insert(e *lfEntry) {
	i := hashToken(e.tok) & t.mask
	for {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(e)
			return
		}
		i = (i + 1) & t.mask
	}
}

// hashToken is 32-bit FNV-1a.
//
//emlint:zeroalloc
//emlint:hotpath
func hashToken(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Lookup returns the ID of tok if it was interned before the view was
// captured. Tokens interned after the capture point are reported unknown,
// which keeps every resolvable ID strictly below v.n — the invariant the
// serving snapshots rely on to bound postings reads.
//
//emlint:zeroalloc
func (v View) Lookup(tok string) (uint32, bool) {
	if v.tbl == nil {
		return 0, false
	}
	i := hashToken(tok) & v.tbl.mask
	for {
		e := v.tbl.slots[i].Load()
		if e == nil {
			return 0, false
		}
		if e.tok == tok {
			if e.id < v.n {
				return e.id, true
			}
			return 0, false
		}
		i = (i + 1) & v.tbl.mask
	}
}

// SortedSetEphemeral returns the ascending, duplicate-free ID set of toks
// without touching the dictionary: known tokens (interned before the view)
// map to their IDs, and each distinct unknown token gets an ephemeral ID
// v.n+k in first-appearance order. Ephemeral IDs are disjoint from every
// ID the view can resolve, so set-size arithmetic over a mix of corpus and
// query sets stays exact — the same contract as Dict.SortedSetEphemeral,
// minus any lock. The result is never nil.
func (v View) SortedSetEphemeral(toks []string) []uint32 {
	return sortedSetEphemeral(toks, v.Lookup, v.n)
}
