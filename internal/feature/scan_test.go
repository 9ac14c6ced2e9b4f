package feature

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// scanSet is every registered kind over attribute v, a second group over w,
// a third that reads v on the left and w on the right, and two features
// built by hand, which have nothing but their Fn: a token-set measure the
// registry has no kind for, and a character-level one.
func scanSet(t testing.TB) *Set {
	t.Helper()
	s := everyKind(t)
	for _, kind := range []string{"exact", "lev", "jaro_winkler", "jaccard_ws", "cosine_ws", "jaccard_3gram", "monge_elkan_jw", "rel_diff"} {
		f, err := NewFeature(kind, "w")
		if err != nil {
			t.Fatal(err)
		}
		cross := f
		cross.Name, cross.LAttr = "cross_"+f.Name, "v"
		for _, f := range []Feature{f, cross} {
			if err := s.Add(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	ws := tokenize.Whitespace{ReturnSet: true}
	for _, f := range []Feature{
		{Name: "hand_tversky_v", LAttr: "v", RAttr: "v",
			Fn: tokenized(ws, func(a, b []string) float64 { return sim.Tversky(a, b, 0.3, 0.7) })},
		{Name: "hand_same_length_v", LAttr: "v", RAttr: "v", Fn: func(l, r string) float64 {
			if len(l) == len(r) {
				return 1
			}
			return 0
		}},
	} {
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// checkRow fails unless x is, bit for bit, each feature's Fn on the two
// records' strings, or the missing policy's score where either is null.
func checkRow(t *testing.T, s *Set, l, r map[string]string, x []float64, what string) {
	t.Helper()
	for k, f := range s.Features {
		lv, lok := l[f.LAttr]
		rv, rok := r[f.RAttr]
		want := s.missingScore()
		if lok && rok {
			want = f.Fn(lv, rv)
		}
		if math.Float64bits(x[k]) != math.Float64bits(want) {
			t.Fatalf("%s: %s(%q, %q) = %v, the string function says %v", what, f.Name, lv, rv, x[k], want)
		}
	}
}

// scanValues is a small pool of attribute values — so that a scan meets
// each many times — with the cases the group kernels branch on: empty,
// numerals, shared prefixes, non-ASCII, and values past the 64 runes the
// bit vector takes.
func scanValues() []string {
	long := strings.Repeat("north lake shore drive ", 4)
	return []string{
		"", "wi", "mn", "53703", "53704", "7.5", "madison", "Madison", "madisson",
		"ann smith", "anne smith", "smith ann", "josé muñoz", "jose munoz",
		long + "apt 4", long + "apt 14", "south " + long,
	}
}

// TestScanRowsEqualStringFunctions: VectorInto over a long sequence of
// pairs on one scratch — three left records interleaved in runs and one at
// a time, right values repeating heavily, nulls on either side, under both
// missing policies — gives for every pair the row the string functions
// give. Whatever the memo answered, it answered right.
func TestScanRowsEqualStringFunctions(t *testing.T) {
	s := scanSet(t)
	vals := scanValues()
	rng := rand.New(rand.NewSource(5))
	record := func() map[string]string {
		rec := map[string]string{}
		for _, attr := range []string{"v", "w"} {
			if rng.Intn(6) > 0 { // else a null
				rec[attr] = vals[rng.Intn(len(vals))]
			}
		}
		return rec
	}
	d := intern.NewDict()
	lefts, rights := make([]map[string]string, 3), make([]map[string]string, 60)
	lp, rp := make([]*Prepared, len(lefts)), make([]*Prepared, len(rights))
	for _, policy := range []MissingPolicy{MissingZero, MissingNeutral} {
		s.Missing = policy
		for i := range lefts {
			lefts[i] = record()
			lp[i] = s.Prepare(lefts[i], false, d.SortedSet)
		}
		for i := range rights {
			rights[i] = record()
			rp[i] = s.Prepare(rights[i], true, d.SortedSet)
		}
		var sc sim.Scratch
		x := make([]float64, s.Len())
		li := 0
		for step := 0; step < 4000; step++ {
			if step%200 >= 170 || rng.Intn(100) == 0 { // runs of one left record, then a stretch of switching
				li = rng.Intn(len(lefts))
			}
			ri := rng.Intn(len(rights))
			s.VectorInto(lp[li], rp[ri], &sc, x)
			checkRow(t, s, lefts[li], rights[ri], x, fmt.Sprintf("policy %d step %d", policy, step))
		}
		if scored, reused := sc.TakeBlockCounts(); reused < scored {
			t.Fatalf("policy %d: %d groups scored, %d reused: the sequence was meant to repeat", policy, scored, reused)
		}
	}
}

// TestScanPastMemoCapacity: one left record against more distinct right
// values than a memo holds, twice over. The second pass finds some groups
// remembered and scores the rest again; every row is still the string
// functions'.
func TestScanPastMemoCapacity(t *testing.T) {
	s := scanSet(t)
	d := intern.NewDict()
	left := map[string]string{"v": "ann smith 12", "w": "53703"}
	lp := s.Prepare(left, false, d.SortedSet)
	rights := make([]map[string]string, 2500) // three groups each: 7 500 blocks asked for
	rp := make([]*Prepared, len(rights))
	for i := range rights {
		rights[i] = map[string]string{"v": fmt.Sprintf("ann smith %d", i), "w": fmt.Sprint(50000 + i)}
		rp[i] = s.Prepare(rights[i], true, d.SortedSet)
	}
	var sc sim.Scratch
	x := make([]float64, s.Len())
	for pass := 0; pass < 2; pass++ {
		for i := range rights {
			s.VectorInto(lp, rp[i], &sc, x)
			checkRow(t, s, left, rights[i], x, fmt.Sprintf("pass %d right %d", pass, i))
		}
		scored, reused := sc.TakeBlockCounts()
		if pass == 0 && (scored != 3*len(rights) || reused != 0) {
			t.Fatalf("first pass: %d scored, %d reused, want %d and 0", scored, reused, 3*len(rights))
		}
		if pass == 1 && (reused == 0 || scored == 0) {
			t.Fatalf("second pass: %d scored, %d reused: the memo should have held some groups and not all", scored, reused)
		}
	}
}

// TestScanFollowsRefillInPlace: a scratch record refilled in place is a new
// left record at an old address. The pooled one-pair path does exactly
// that to its left side; a scan over it afterwards must not be answered
// from the scan over what the address held before.
func TestScanFollowsRefillInPlace(t *testing.T) {
	s := scanSet(t)
	d := intern.NewDict()
	first := map[string]string{"v": "ann smith", "w": "53703"}
	second := map[string]string{"v": "bob jones", "w": "10001"}
	right := map[string]string{"v": "anne smith", "w": "53704"}
	rp := s.Prepare(right, true, d.SortedSet)
	var ps pairScratch
	x := make([]float64, s.Len())
	for i, left := range []map[string]string{first, second, first} {
		ps.vectorWith(s, left, right, nil, nil, x) // fills ps.l from left, scores the one pair
		checkRow(t, s, left, right, x, fmt.Sprintf("record %d, one pair", i))
		for range 2 {
			s.VectorInto(&ps.l, rp, &ps.sim, x) // a scan with ps.l as its left record
			checkRow(t, s, left, right, x, fmt.Sprintf("record %d, scan", i))
		}
	}
}

// TestScanFollowsPlanChange: Add and Remove re-resolve the plan, and with
// it what a group is. Records prepared again under the new plan — here
// into the very struct that held the old one — are scored as a fresh
// scratch scores them, not from blocks the old plan's groups left behind.
func TestScanFollowsPlanChange(t *testing.T) {
	s := scanSet(t)
	d := intern.NewDict()
	left := map[string]string{"v": "ann smith", "w": "53703"}
	right := map[string]string{"v": "anne smith", "w": "53704"}
	var l, r Prepared
	var sc sim.Scratch
	scan := func(what string) {
		t.Helper()
		s.PrepareInto(&l, left, false, d.SortedSet)
		s.PrepareInto(&r, right, true, d.SortedSet)
		x, fresh := make([]float64, s.Len()), make([]float64, s.Len())
		for range 2 {
			s.VectorInto(&l, &r, &sc, x)
			checkRow(t, s, left, right, x, what)
		}
		s.VectorInto(&l, &r, new(sim.Scratch), fresh)
		for k := range x {
			if math.Float64bits(x[k]) != math.Float64bits(fresh[k]) {
				t.Fatalf("%s: column %d is %v on the reused scratch, %v on a fresh one", what, k, x[k], fresh[k])
			}
		}
	}
	scan("before the edit")
	dice, err := NewFeature("dice_ws", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(dice); err != nil {
		t.Fatal(err)
	}
	scan("after Add")
	if !s.Remove("exact_v") {
		t.Fatal("exact_v not in the set")
	}
	scan("after Remove")
}

// TestScanCheapPass: on one scratch, one left record's run of right
// records whose values repeat, nulls among them. Pair by pair the run takes
// the cheap pass alone, the cheap pass and then the whole row, or the whole
// row alone, so each memo key answers sometimes. The cheap pass fills
// exactly the columns Deferred does not mark, with the bits a memo-free
// VectorInto gives, and leaves the deferred ones as they were; every whole
// row is that VectorInto's.
func TestScanCheapPass(t *testing.T) {
	s := everyKind(t)
	deferred := s.Deferred()
	var names []string
	for k, f := range s.Features {
		if deferred[k] {
			names = append(names, f.Name)
		}
	}
	if want := []string{"jaro_v", "jaro_winkler_v", "lev_v", "monge_elkan_jw_v"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("deferred features %v, want %v", names, want)
	}
	vals := scanValues()
	rng := rand.New(rand.NewSource(9))
	d := intern.NewDict()
	lp := s.Prepare(map[string]string{"v": "anne smith"}, false, d.SortedSet)
	var sc, ref sim.Scratch
	x, want := make([]float64, s.Len()), make([]float64, s.Len())
	stale := math.Float64frombits(0x7ff8dead) // a NaN no feature returns
	for step := 0; step < 3000; step++ {
		right := map[string]string{}
		if rng.Intn(8) > 0 {
			right["v"] = vals[rng.Intn(len(vals))]
		}
		rp := s.Prepare(right, true, d.SortedSet)
		s.vector(lp, rp, &ref, want, false, false)
		mode := rng.Intn(3) // 0: cheap alone, 1: cheap then whole, 2: whole alone
		if mode < 2 {
			for k := range x {
				x[k] = stale
			}
			s.cheapInto(lp, rp, &sc, x)
			for k := range x {
				if got := math.Float64bits(x[k]); deferred[k] && got != math.Float64bits(stale) || !deferred[k] && got != math.Float64bits(want[k]) {
					t.Fatalf("step %d, right %q: cheap pass has %s = %v, want %v (deferred %v)", step, right["v"], s.Features[k].Name, x[k], want[k], deferred[k])
				}
			}
		}
		if mode > 0 {
			s.VectorInto(lp, rp, &sc, x)
			for k := range x {
				if math.Float64bits(x[k]) != math.Float64bits(want[k]) {
					t.Fatalf("step %d, right %q, mode %d: %s = %v, want %v", step, right["v"], mode, s.Features[k].Name, x[k], want[k])
				}
			}
		}
	}
	if scored, reused := sc.TakeBlockCounts(); reused < 10*scored {
		t.Fatalf("%d blocks scored, %d reused: the run was meant to repeat", scored, reused)
	}
}

// TestPlanGroupsByAttributePair: every feature is in the group of the
// columns it reads, once, and within a group the features over one
// interned column sit together — what lets scoreGroup keep a single
// intersection at hand.
func TestPlanGroupsByAttributePair(t *testing.T) {
	s := scanSet(t)
	p := s.planned()
	if len(p.groups) != 3 {
		t.Fatalf("%d groups, want 3: (v, v), (w, w), (v, w)", len(p.groups))
	}
	seen := 0
	for _, g := range p.groups {
		last, closed := -2, map[int]bool{}
		for _, k := range g.feats {
			seen++
			f := s.Features[k]
			if got := [2]string{p.sides[0].attrs[g.col[0]], p.sides[1].attrs[g.col[1]]}; got != [2]string{f.LAttr, f.RAttr} {
				t.Fatalf("feature %s is in the group of columns %v", f.Name, got)
			}
			if set := p.feats[k].set[0]; set != last {
				if closed[set] {
					t.Fatalf("group %v: features over interned column %d are not adjacent", g.col, set)
				}
				closed[last], last = true, set
			}
		}
	}
	if seen != s.Len() {
		t.Fatalf("the groups hold %d features, the set %d", seen, s.Len())
	}
}

// TestVectorsChunkedScan: a candidate set of several chunks, each left
// row's pairs in a run as a blocker emits them. Whatever the worker count
// — chunks claimed by one worker in order, or by several in any order —
// the matrix is the string path's, and the counters account for every
// non-null group, the repeating ones (ages) reused.
func TestVectorsChunkedScan(t *testing.T) {
	a, b, _, cat := cacheTables(t, 80, 11)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := table.NewPairTable("runs", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	for li := 0; li < a.Len(); li++ {
		for ri := 0; ri < b.Len(); ri++ {
			appendPair(pairs, fmt.Sprintf("a%d", li), fmt.Sprintf("b%d", ri))
			for _, attr := range []string{"name", "desc", "age"} {
				if !a.Get(li, attr).IsNull() && !b.Get(ri, attr).IsNull() {
					groups++
				}
			}
		}
	}
	if pairs.Len() < 3*vectorsChunk {
		t.Fatalf("%d pairs are fewer than three chunks of %d", pairs.Len(), vectorsChunk)
	}
	want := stringPathVectors(t, s, pairs, cat)
	for _, workers := range []int{1, 3, 0} {
		reg := obs.NewRegistry()
		got, err := tableVectors(s, pairs, cat, workers, reg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: chunked vectors diverge from the string path", workers)
		}
		scored := reg.CounterValue(obs.FeaturePairGroups, obs.L("result", "scored"))
		reused := reg.CounterValue(obs.FeaturePairGroups, obs.L("result", "reused"))
		if scored+reused != float64(groups) || reused == 0 {
			t.Fatalf("workers=%d: %v groups scored, %v reused, want %d in all and some reused (ages repeat)", workers, scored, reused, groups)
		}
	}
}

// TestSelectChunkedScan: Select over the same several-chunk candidate set,
// with a keep that completes every row, keeps, ascending, exactly the pairs
// whose string-path row its predicate accepts, at any worker count, and
// counts what Vectors counts at that count: the same vectors and, since
// every group has a cheap prefix, each pair's groups twice (cheap and
// whole), and at one worker twice the groups reused.
func TestSelectChunkedScan(t *testing.T) {
	a, b, _, cat := cacheTables(t, 80, 11)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := table.NewPairTable("runs", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	for li := 0; li < a.Len(); li++ {
		for ri := 0; ri < b.Len(); ri++ {
			appendPair(pairs, fmt.Sprintf("a%d", li), fmt.Sprintf("b%d", ri))
		}
	}
	cand, err := cat.Pairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(x []float64) bool { return x[0]+x[len(x)-1] > 0.9 }
	keep := func(x []float64, fill func()) bool {
		fill()
		return pred(x)
	}
	var want []int
	for i, x := range stringPathVectors(t, s, pairs, cat) {
		if pred(x) {
			want = append(want, i)
		}
	}
	if len(want) == 0 || len(want) == pairs.Len() {
		t.Fatalf("the predicate keeps %d of %d pairs; want a proper subset", len(want), pairs.Len())
	}
	counts := func(reg *obs.Registry) [3]float64 {
		scored := reg.CounterValue(obs.FeaturePairGroups, obs.L("result", "scored"))
		reused := reg.CounterValue(obs.FeaturePairGroups, obs.L("result", "reused"))
		return [3]float64{reg.CounterValue(obs.FeatureVectors), scored + reused, reused}
	}
	for _, workers := range []int{1, 3, 0} {
		reg, vreg := obs.NewRegistry(), obs.NewRegistry()
		got, err := Select(s, cand, workers, reg, keep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Select keeps %d pairs, the string path %d (or in another order)", workers, len(got), len(want))
		}
		if _, err := tableVectors(s, pairs, cat, workers, vreg); err != nil {
			t.Fatal(err)
		}
		g, v := counts(reg), counts(vreg)
		if workers != 1 { // which worker continues a left run is scheduling
			g[2], v[2] = 0, 0
		}
		if v[1], v[2] = 2*v[1], 2*v[2]; g != v {
			t.Fatalf("workers=%d: Select counts (vectors, groups, reused) %v, Vectors %v doubled", workers, g, v)
		}
	}
}

// TestVectorsCountsTokenBlocks: Vectors flushes its scratches' token-memo
// counts — at one worker, exactly what the same scan run by hand through
// VectorInto on one scratch counts — and the repeating words of the
// fixture are reused.
func TestVectorsCountsTokenBlocks(t *testing.T) {
	a, b, _, cat := cacheTables(t, 30, 11)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(s.Features, func(f Feature) bool { return f.mongeElkan }) {
		t.Fatal("the generated set has no monge_elkan_jw feature")
	}
	pairs, err := table.NewPairTable("runs", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	d := intern.NewDict()
	var sc sim.Scratch
	x := make([]float64, s.Len())
	for li := 0; li < a.Len(); li++ {
		l := s.Prepare(rowAttrs(a, a.Row(li)), false, d.SortedSet)
		for ri := 0; ri < b.Len(); ri++ {
			appendPair(pairs, fmt.Sprintf("a%d", li), fmt.Sprintf("b%d", ri))
			s.VectorInto(l, s.Prepare(rowAttrs(b, b.Row(ri)), true, d.SortedSet), &sc, x)
		}
	}
	scored, reused := sc.TakeTokenBlockCounts()
	reg := obs.NewRegistry()
	if _, err := tableVectors(s, pairs, cat, 1, reg); err != nil {
		t.Fatal(err)
	}
	got := [2]float64{
		reg.CounterValue(obs.FeatureTokenBlocks, obs.L("result", "scored")),
		reg.CounterValue(obs.FeatureTokenBlocks, obs.L("result", "reused")),
	}
	if want := [2]float64{float64(scored), float64(reused)}; got != want || reused == 0 {
		t.Fatalf("Vectors counts token blocks (scored, reused) %v, the scan by hand %v; want them equal and some reused", got, want)
	}
}
