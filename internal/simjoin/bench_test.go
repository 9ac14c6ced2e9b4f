package simjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// benchRecords builds n records of k tokens from a vocab-sized vocabulary.
func benchRecords(n, k, vocab int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		toks := make([]string, k)
		for j := range toks {
			toks[j] = fmt.Sprintf("t%d", rng.Intn(vocab))
		}
		out[i] = Record{ID: fmt.Sprintf("r%d", i), Tokens: toks}
	}
	return out
}

func BenchmarkJaccardJoin1K(b *testing.B) {
	l := benchRecords(1000, 5, 2000, 1)
	r := benchRecords(1000, 5, 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JaccardJoin(l, r, 0.5, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceJaccardJoin1K is the retained string-kernel join on
// the BenchmarkJaccardJoin1K input: the interned-vs-reference number.
func BenchmarkReferenceJaccardJoin1K(b *testing.B) {
	l := benchRecords(1000, 5, 2000, 1)
	r := benchRecords(1000, 5, 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceJaccardJoin(l, r, 0.5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJaccardNaive1K is the quadratic baseline the prefix filter is
// compared against.
func BenchmarkJaccardNaive1K(b *testing.B) {
	l := benchRecords(1000, 5, 2000, 1)
	r := benchRecords(1000, 5, 2000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveSetJoin(l, r, 0.5, jaccardForBench)
	}
}

func jaccardForBench(a, b []string) float64 {
	seen := make(map[string]bool, len(a))
	for _, t := range a {
		seen[t] = true
	}
	inter := 0
	seenB := make(map[string]bool, len(b))
	for _, t := range b {
		if !seenB[t] {
			seenB[t] = true
			if seen[t] {
				inter++
			}
		}
	}
	union := len(seen) + len(seenB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func BenchmarkOverlapJoin1K(b *testing.B) {
	l := benchRecords(1000, 5, 2000, 3)
	r := benchRecords(1000, 5, 2000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OverlapJoin(l, r, 2, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// figure2Records is the production blocker's input in batch_figure2: the
// whole-tuple token sets of two 2 000-row person tables (match fraction
// 0.4, typo 0.2), keyed by id.
func figure2Records(tb testing.TB) (l, r []Record) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "figure2", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	side := func(t *table.Table) []Record {
		ids, err := t.Strings(t.Key())
		if err != nil {
			tb.Fatal(err)
		}
		out := make([]Record, len(ids))
		for i, toks := range table.WholeTupleTokens(t) {
			out[i] = Record{ID: ids[i], Tokens: toks}
		}
		return out
	}
	return side(task.A), side(task.B)
}

// BenchmarkOverlapJoinFigure2 is the whole-tuple overlap join (k = 2) that
// blocks batch_figure2's production tables: about 327k pairs out.
func BenchmarkOverlapJoinFigure2(b *testing.B) {
	l, r := figure2Records(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		ps, err := OverlapJoin(l, r, 2, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(ps.L)
	}
	b.ReportMetric(float64(pairs), "pairs")
}

func BenchmarkEditDistanceJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) []StringRecord {
		out := make([]StringRecord, n)
		for i := range out {
			out[i] = StringRecord{ID: fmt.Sprintf("s%d", i), Str: fmt.Sprintf("entity-%06d", rng.Intn(5000))}
		}
		return out
	}
	l, r := mk(500), mk(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EditDistanceJoin(l, r, 1, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
