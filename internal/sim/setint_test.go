package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/intern"
)

// tokenMultiset is a random token multiset drawn from a small alphabet, so
// duplicates and overlaps are common.
type tokenMultiset []string

// Generate implements quick.Generator.
func (tokenMultiset) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size%12 + 1)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = fmt.Sprintf("t%d", rng.Intn(9))
	}
	return reflect.ValueOf(tokenMultiset(toks))
}

// internPair canonicalizes both multisets through one shared dictionary,
// the way every bulk caller does.
func internPair(a, b []string) (sa, sb []uint32) {
	d := intern.NewDict()
	return d.SortedSet(a), d.SortedSet(b)
}

// viaCounts scores interned sets the way feature scoring does: the
// measure's formula over one merge and the two set sizes.
func viaCounts(of func(inter, na, nb int) float64) func(a, b []uint32) float64 {
	return func(a, b []uint32) float64 { return of(intersectSorted[uint32](a, b), len(a), len(b)) }
}

// TestIntegerKernelsMatchStringKernels is the equivalence property of the
// interning layer: on any random token multisets, every measure over
// interned IDs must reproduce its string counterpart bit for bit.
func TestIntegerKernelsMatchStringKernels(t *testing.T) {
	kernels := []struct {
		name string
		str  func(a, b []string) float64
		ids  func(a, b []uint32) float64
	}{
		{"jaccard", Jaccard, JaccardU32},
		{"dice", Dice, viaCounts(DiceOf)},
		{"cosine", CosineSet, viaCounts(CosineOf)},
		{"overlap_coeff", OverlapCoefficient, viaCounts(OverlapCoefficientOf)},
		{"overlap_size",
			func(a, b []string) float64 { return float64(OverlapSize(a, b)) },
			func(a, b []uint32) float64 { return float64(intersectSorted[uint32](a, b)) }},
		{"tversky",
			func(a, b []string) float64 { return Tversky(a, b, 0.7, 0.2) },
			viaCounts(func(inter, na, nb int) float64 { return TverskyOf(inter, na, nb, 0.7, 0.2) })},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			f := func(a, b tokenMultiset) bool {
				sa, sb := internPair(a, b)
				return k.str(a, b) == k.ids(sa, sb)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBoundedIntersectExact: a non-negative bounded result is always the
// exact intersection size, and -1 only appears when the true intersection is
// below the bound.
func TestBoundedIntersectExact(t *testing.T) {
	f := func(a, b tokenMultiset, needRaw uint8) bool {
		sa, sb := internPair(a, b)
		need := int(needRaw % 8)
		exact := intersectSorted[uint32](sa, sb)
		got := IntersectSortedU32Bounded(sa, sb, need)
		if got >= 0 {
			return got == exact
		}
		return exact < need
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestIntegerKernelsZeroAlloc pins the zero-allocation contract of every
// merge kernel: scoring a pre-interned pair must not touch the heap.
func TestIntegerKernelsZeroAlloc(t *testing.T) {
	d := intern.NewDict()
	a := d.SortedSet([]string{"acme", "widgets", "of", "madison", "wi"})
	b := d.SortedSet([]string{"acme", "widget", "co", "madison", "wi"})
	checks := map[string]func(){
		"intersectSorted":           func() { intersectSorted(a, b) },
		"IntersectSortedU32Bounded": func() { IntersectSortedU32Bounded(a, b, 3) },
		"JaccardU32":                func() { JaccardU32(a, b) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestIntersectSortedU32Basics covers the deterministic corner cases the
// property tests may not hit.
func TestIntersectSortedU32Basics(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want int
	}{
		{nil, nil, 0},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 3},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, 0},
		{[]uint32{1, 2, 9}, []uint32{2, 9, 10}, 2},
	}
	for _, c := range cases {
		if got := intersectSorted[uint32](c.a, c.b); got != c.want {
			t.Errorf("intersectSorted(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := IntersectSortedU32Bounded([]uint32{1, 2}, []uint32{3, 4}, 2); got != -1 {
		t.Errorf("bounded intersect should early-exit, got %d", got)
	}
}

// randomIDSet draws size IDs below n, as a sorted duplicate-free set.
func randomIDSet(rng *rand.Rand, n, size int) []uint32 {
	ids := make([]uint32, size)
	for i := range ids {
		ids[i] = uint32(rng.Intn(n))
	}
	return intern.SortedDedup(ids)
}

// TestQuickIntersectLeftMatchesMerge: over a stream of scans on one
// scratch, IntersectLeft's count is the merge's, whatever the
// marks hold. The stream interleaves left records and returns to them
// under new scans; refills a left record's sets in place under a new scan;
// draws right IDs past every left ID, so past the marks; scores serve's
// queries, whose unknown tokens get ephemeral IDs past the dictionary
// (View.SortedSetEphemeral), against corpus sets; and gives a left record
// more set-columns than a mark has bits, which are merged.
func TestQuickIntersectLeftMatchesMerge(t *testing.T) {
	sc := new(Scratch)
	scan := uint64(0)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := intern.NewSnapDict()
		vocab := make([]string, 40+rng.Intn(400))
		for i := range vocab {
			vocab[i] = fmt.Sprintf("t%d", i)
		}
		known := vocab[:len(vocab)/2]
		for _, tok := range known {
			d.Intern(tok)
		}
		view := d.View()
		n := len(vocab)
		type left struct {
			scan uint64
			sets [][]uint32 // per set-column
		}
		newLeft := func() left {
			scan++
			l := left{scan: scan, sets: make([][]uint32, 1+rng.Intn(markBits+3))}
			for c := range l.sets {
				if rng.Intn(3) == 0 { // a query: ephemeral IDs for the unknown tokens
					toks := make([]string, rng.Intn(12))
					for i := range toks {
						toks[i] = vocab[rng.Intn(n)]
					}
					l.sets[c] = view.SortedSetEphemeral(toks)
				} else {
					l.sets[c] = randomIDSet(rng, n/2, rng.Intn(21))
				}
			}
			return l
		}
		lefts := []left{newLeft(), newLeft(), newLeft()}
		cur := 0
		for row := 0; row < 80; row++ {
			switch rng.Intn(10) {
			case 0: // another left record, or one met before under a new scan
				cur = rng.Intn(len(lefts))
				scan++
				lefts[cur].scan = scan
			case 1: // the left record refilled in place
				scan++
				lefts[cur].scan = scan
				for c, s := range lefts[cur].sets {
					fresh := randomIDSet(rng, n/2, rng.Intn(cap(s)+1))
					lefts[cur].sets[c] = s[:copy(s[:cap(s)], fresh)]
				}
			}
			l := lefts[cur]
			sc.Scan(l.scan)
			c := rng.Intn(len(l.sets))
			r := randomIDSet(rng, n+rng.Intn(2*n), rng.Intn(25)) // past the dictionary, and past every left ID
			if got, want := sc.IntersectLeft(c, l.sets[c], r), intersectSorted[uint32](l.sets[c], r); got != want {
				t.Logf("column %d of %d: IntersectLeft(%v, %v) = %d, want %d", c, len(l.sets), l.sets[c], r, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// figure2Sets is a scan of batch_figure2's shape: seven left set-columns
// of ~20 3-gram IDs from a dictionary of 30 000, each against 160 right
// sets of ~20 that share a third of its IDs.
func figure2Sets() (lefts [7][]uint32, rights [7][160][]uint32) {
	rng := rand.New(rand.NewSource(1))
	for c := range lefts {
		lefts[c] = randomIDSet(rng, 30000, 20)
		for i := range rights[c] {
			ids := randomIDSet(rng, 30000, 14)
			for _, id := range lefts[c] {
				if rng.Intn(3) == 0 {
					ids = append(ids, id)
				}
			}
			rights[c][i] = intern.SortedDedup(ids)
		}
	}
	return lefts, rights
}

// TestIntersectLeftZeroAlloc: once the marks have grown, a fresh scan —
// clearing the last one's marks, marking seven columns, counting 160
// right sets against each — allocates nothing.
func TestIntersectLeftZeroAlloc(t *testing.T) {
	lefts, rights := figure2Sets()
	sc := new(Scratch)
	scan, n := uint64(0), 0
	run := func() {
		scan++
		sc.Scan(scan)
		for c := range lefts {
			for _, r := range rights[c] {
				n += sc.IntersectLeft(c, lefts[c], r)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a scan allocates %.0f times", allocs)
	}
	if n == 0 {
		t.Fatal("no right set shared an ID with its left set")
	}
}
