package serve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// TestBatchServeDifferential is the batch ↔ serve oracle (ROADMAP item
// 7a). On three datagen tasks and for whole-tuple overlap k = 1, 2, 3, a
// corpus holding B surfaces, over A's records, exactly the pairs
// block.WholeTupleOverlapBlocker emits — the two candidate paths, one
// through simjoin's prefix filter and one through the corpus's postings —
// and MatchOne scores every pair exactly as the forest scores that pair's
// feature.Vectors row, bit for bit.
func TestBatchServeDifferential(t *testing.T) {
	ctx := context.Background()
	for _, dom := range []datagen.Domain{datagen.PersonDomain(), datagen.ProductDomain(), datagen.RestaurantDomain()} {
		task, err := datagen.Generate(datagen.Spec{
			Name: dom.Name, Domain: dom, SizeA: 120, SizeB: 200, Typo: 0.3, Missing: 0.1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := feature.AutoGenerate(task.A, task.B)
		if err != nil {
			t.Fatal(err)
		}
		qs := tableRecords(task.A)
		var rf *ml.RandomForest
		for k := 1; k <= 3; k++ {
			cat := table.NewCatalog()
			cands, err := block.WholeTupleOverlapBlocker{MinOverlap: k}.Block(task.A, task.B, cat)
			if err != nil {
				t.Fatal(err)
			}
			p, err := cat.Pairs(cands)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := feature.Vectors(fs, p, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rf == nil { // fitted once per task, on the widest candidate set
				rf = fitOnGold(t, fs, cands, rows, task)
			}
			want := make(map[[2]string]float64, len(rows))
			for i, row := range rows {
				want[[2]string{cands.Get(i, "ltable_id").AsString(), cands.Get(i, "rtable_id").AsString()}] = rf.PredictProba(row)
			}

			c := NewCorpus(WithTokenizer(tokenize.Alphanumeric{ReturnSet: true}), WithMinOverlap(k))
			if err := c.AddBatch(tableRecords(task.B), false); err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, q := range qs {
				for _, id := range c.CandidateIDs(q) {
					if _, ok := want[[2]string{q.ID, id}]; !ok {
						t.Fatalf("%s k=%d: the corpus surfaces (%s, %s), the blocker does not", dom.Name, k, q.ID, id)
					}
					got++
				}
			}
			if got != len(want) {
				t.Fatalf("%s k=%d: the corpus surfaces %d pairs, the blocker %d", dom.Name, k, got, len(want))
			}

			if err := c.SetMatcher(fs, rf); err != nil {
				t.Fatal(err)
			}
			scored, levels := 0, make(map[float64]bool)
			for _, q := range qs {
				pairs, err := c.MatchOne(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pairs {
					if w := want[[2]string{q.ID, p.ID}]; p.Score != w {
						t.Fatalf("%s k=%d: (%s, %s) scores %v in MatchOne, %v over its Vectors row", dom.Name, k, q.ID, p.ID, p.Score, w)
					}
					levels[p.Score] = true
				}
				scored += len(pairs)
			}
			if scored != len(want) || len(levels) < 3 {
				t.Fatalf("%s k=%d: MatchOne scored %d pairs at %d levels, the blocker emits %d", dom.Name, k, scored, len(levels), len(want))
			}
			t.Logf("%s k=%d: %d pairs agree, %d score levels", dom.Name, k, len(want), len(levels))
		}
	}
}

// TestQuickBatchServeDifferential is TestBatchServeDifferential on inputs
// nobody picked: testing/quick draws the domain, both table sizes, typo
// and null rates, the generator seed and k ∈ {1, 2, 3}. For each draw the
// union over A of the corpus's CandidateIDs must be exactly the pair set
// block.WholeTupleOverlapBlocker emits, and every MatchOne score must be
// the forest's score of that pair's feature.Vectors row, bit for bit. The
// forest is fitted on the draw's k = 1 candidates.
func TestQuickBatchServeDifferential(t *testing.T) {
	ctx := context.Background()
	domains := []func() datagen.Domain{
		datagen.PersonDomain, datagen.ProductDomain, datagen.VehicleDomain, datagen.VendorDomain, datagen.BookDomain,
		datagen.RestaurantDomain, datagen.RanchDomain, datagen.CitationDomain, datagen.MovieDomain,
	}
	check := func(seed int64, dom, na, nb, typo, missing, kk uint8) bool {
		spec := datagen.Spec{
			Domain: domains[int(dom)%len(domains)](), SizeA: 20 + int(na)%60, SizeB: 30 + int(nb)%90,
			Typo: float64(typo%5) / 10, Missing: float64(missing%3) / 10, Seed: seed,
		}
		k := 1 + int(kk)%3
		spec.Name = spec.Domain.Name
		where := fmt.Sprintf("%s %d×%d typo %.1f missing %.1f seed %d k=%d", spec.Name, spec.SizeA, spec.SizeB, spec.Typo, spec.Missing, seed, k)
		task, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := feature.AutoGenerate(task.A, task.B)
		if err != nil {
			t.Fatal(err)
		}
		blockAt := func(k int) (*table.Table, [][]float64) {
			cat := table.NewCatalog()
			cands, err := block.WholeTupleOverlapBlocker{MinOverlap: k}.Block(task.A, task.B, cat)
			if err != nil {
				t.Fatal(err)
			}
			p, err := cat.Pairs(cands)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := feature.Vectors(fs, p, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			return cands, rows
		}
		wide, wideRows := blockAt(1)
		rf := fitOnGold(t, fs, wide, wideRows, task)
		cands, rows := blockAt(k)
		want := make(map[[2]string]float64, len(rows))
		for i, row := range rows {
			want[[2]string{cands.Get(i, "ltable_id").AsString(), cands.Get(i, "rtable_id").AsString()}] = rf.PredictProba(row)
		}

		c := NewCorpus(WithTokenizer(tokenize.Alphanumeric{ReturnSet: true}), WithMinOverlap(k))
		if err := c.AddBatch(tableRecords(task.B), false); err != nil {
			t.Fatal(err)
		}
		if err := c.SetMatcher(fs, rf); err != nil {
			t.Fatal(err)
		}
		surfaced, scored := 0, 0
		for _, q := range tableRecords(task.A) {
			for _, id := range c.CandidateIDs(q) {
				if _, ok := want[[2]string{q.ID, id}]; !ok {
					t.Errorf("%s: the corpus surfaces (%s, %s), the blocker does not", where, q.ID, id)
					return false
				}
				surfaced++
			}
			pairs, err := c.MatchOne(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if w, ok := want[[2]string{q.ID, p.ID}]; !ok || p.Score != w {
					t.Errorf("%s: (%s, %s) scores %v in MatchOne, %v over its Vectors row", where, q.ID, p.ID, p.Score, w)
					return false
				}
			}
			scored += len(pairs)
		}
		if surfaced != len(want) || scored != len(want) {
			t.Errorf("%s: the corpus surfaces %d pairs and MatchOne scores %d, the blocker emits %d", where, surfaced, scored, len(want))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// fitOnGold fits a 10-tree forest on the candidate rows, labelled by the
// task's gold matches.
func fitOnGold(t *testing.T, fs *feature.Set, cands *table.Table, rows [][]float64, task *datagen.Task) *ml.RandomForest {
	t.Helper()
	y := make([]int, len(rows))
	for i := range rows {
		if task.Gold.IsMatch(cands.Get(i, "ltable_id").AsString(), cands.Get(i, "rtable_id").AsString()) {
			y[i] = 1
		}
	}
	ds, err := ml.NewDataset(rows, y, fs.Names())
	if err != nil {
		t.Fatal(err)
	}
	rf := &ml.RandomForest{NumTrees: 10, Seed: 1, Workers: 1}
	if err := rf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return rf
}

// BenchmarkCorpusProduction is core.BenchmarkWorkflowExecute's production
// pass taken the serving way: the same 2 000 × 2 000 person task, feature
// set and logistic-regression matcher (developed by the guide on a
// 1 000 × 1 000 down-sample with 400 labels), but table B is indexed in a
// Corpus under whole-tuple min-overlap 2 and every record of A is streamed
// through MatchOne on GOMAXPROCS workers, keeping the pairs scored at 0.5
// or above. An op builds the corpus, installs the matcher and streams all
// of A; turning the tables into records is setup. The candidate pairs are
// the blocker's (TestBatchServeDifferential), so the two benchmarks score
// the same ~327k pairs.
func BenchmarkCorpusProduction(b *testing.B) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "figure2", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSession(task.A, task.B, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.DownSample(1000, 1000); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Block(block.WholeTupleOverlapBlocker{MinOverlap: 2}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.SampleAndLabel(400, label.NewOracle(task.Gold)); err != nil {
		b.Fatal(err)
	}
	_, model, err := s.TrainAndPredict(func() ml.Classifier { return &ml.LogisticRegression{Seed: 1} })
	if err != nil {
		b.Fatal(err)
	}
	qs, rs := tableRecords(task.A), tableRecords(task.B)
	ctx := context.Background()
	kept := make([]int, len(qs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCorpus(WithTokenizer(tokenize.Alphanumeric{ReturnSet: true}), WithMinOverlap(2))
		if err := c.AddBatch(rs, false); err != nil {
			b.Fatal(err)
		}
		if err := c.SetMatcher(s.Features, model); err != nil {
			b.Fatal(err)
		}
		if err := parallel.ForEach(0, len(qs), func(q int) error {
			pairs, err := c.MatchOne(ctx, qs[q])
			kept[q] = 0
			for _, p := range pairs {
				if p.Score >= 0.5 {
					kept[q]++
				}
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	matches := 0
	for _, k := range kept {
		matches += k
	}
	b.ReportMetric(float64(matches), "matches")
}
