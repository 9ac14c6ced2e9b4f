package bitvec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomList returns ascending, duplicate-free IDs below n at a random
// density.
func randomList(rng *rand.Rand, n int) []uint32 {
	var ids []uint32
	p := rng.Float64()
	for id := 0; id < n; id++ {
		if rng.Float64() < p {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// TestQuickCounterMatchesMap runs one Counter through random probe
// sequences — spaces that shrink and grow, lists walked through random
// windows, single Adds — and holds it to a map[uint32]int32 after every
// step: each count, the first-touch order, AtLeast's filter, and every
// entry zero after each Reset and AtLeast.
// A probe ends through AtLeast, after a partial read of its counts, or
// unread.
func TestQuickCounterMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Counter
		clean := func(when string) bool {
			if len(c.touched) != 0 || slices.ContainsFunc(c.counts[:cap(c.counts)], func(v int32) bool { return v != 0 }) {
				t.Errorf("seed %d: counts left behind %s", seed, when)
				return false
			}
			return true
		}
		for probe := 0; probe < 24; probe++ {
			n := 1 + rng.Intn(1324)
			c.Reset(n)
			if len(c.counts) != n || !clean("by Reset") {
				return false
			}
			ref := make(map[uint32]int32)
			var order []uint32
			count := func(id uint32) {
				if ref[id] == 0 {
					order = append(order, id)
				}
				ref[id]++
			}
			for l := rng.Intn(6); l > 0; l-- {
				ids := randomList(rng, n+rng.Intn(50)) // members past n outside the window
				lo := uint32(rng.Intn(n + 1))
				hi := lo + uint32(rng.Intn(n+1-int(lo)))
				c.AddPostings(&Postings{ids: ids}, lo, hi)
				for _, id := range ids {
					if id >= lo && id < hi {
						count(id)
					}
				}
			}
			for a := rng.Intn(20); a > 0; a-- {
				id := uint32(rng.Intn(n))
				count(id)
				if got := c.Add(id); got != ref[id] {
					t.Errorf("seed %d: Add(%d) = %d, want %d", seed, id, got, ref[id])
					return false
				}
			}
			touched, counts := c.Counts()
			switch rng.Intn(3) {
			case 0: // consumed fully: every count, the order, then AtLeast
				if !slices.Equal(touched, order) {
					t.Errorf("seed %d: touched %v, first-touch order %v", seed, touched, order)
					return false
				}
				for id := range counts {
					if counts[id] != ref[uint32(id)] {
						t.Errorf("seed %d: count of %d = %d, want %d", seed, id, counts[id], ref[uint32(id)])
						return false
					}
				}
				k := int32(1 + rng.Intn(3))
				want := []uint32{7}
				for _, id := range order {
					if ref[id] >= k {
						want = append(want, id)
					}
				}
				if got := c.AtLeast(k, []uint32{7}); !slices.Equal(got, want) {
					t.Errorf("seed %d: AtLeast(%d) = %v, want %v", seed, k, got, want)
					return false
				}
				if !clean("by AtLeast") {
					return false
				}
			case 1: // consumed partly: a few counts read, the probe left open
				for range 3 {
					if id := uint32(rng.Intn(n)); counts[id] != ref[id] {
						t.Errorf("seed %d: count of %d = %d, want %d", seed, id, counts[id], ref[id])
						return false
					}
				}
			} // else not consumed at all: the next Reset ends it
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildPostingsMatchesSets: list t holds exactly the indices of the
// sets holding t, ascending; an ID no set holds has the nil list.
func TestBuildPostingsMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nids = 40
	sets := make([][]uint32, 1536)
	for i := range sets {
		sets[i] = randomList(rng, nids-1) // ID nids-1 is on no list
	}
	posts := BuildPostings(sets, nids)
	for id := uint32(0); id < nids; id++ {
		var want []uint32
		for i, set := range sets {
			if slices.Contains(set, id) {
				want = append(want, uint32(i))
			}
		}
		if got := window(posts[id], 0, uint32(len(sets))); !slices.Equal(got, want) || (want == nil) != (posts[id] == nil) {
			t.Fatalf("postings of %d: %v, want %v", id, got, want)
		}
	}
}

// TestCounterZeroAlloc guards the counter's //emlint:zeroalloc methods
// once the counter and the destination have grown.
func TestCounterZeroAlloc(t *testing.T) {
	var c Counter
	short := &Postings{ids: []uint32{1, 3, 5, 7}}
	long := &Postings{ids: randomList(rand.New(rand.NewSource(1)), 2048)}
	dst := make([]uint32, 0, 2048)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"AddPostings", func() { c.AddPostings(short, 0, 8); c.AddPostings(long, 2, 1500) }},
		{"Add", func() { c.Add(3); c.Add(2) }},
		{"Counts", func() { c.Counts() }},
		{"AtLeast", func() { c.AddPostings(long, 0, 900); c.AddPostings(short, 0, 8); dst = c.AtLeast(2, dst[:0]) }},
	} {
		c.Reset(2048)
		tc.fn() // grow touched once
		c.Reset(2048)
		if allocs := testing.AllocsPerRun(100, func() { tc.fn(); c.Reset(2048) }); allocs != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, allocs)
		}
	}
}
