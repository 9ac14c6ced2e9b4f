package cloud

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/active"
	"repro/internal/block"
	"repro/internal/falcon"
	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/rules"
	"repro/internal/table"
)

// vectors is the stored form of extracted feature matrices: X scores the
// pair table's rows one for one, and rows is that table as Catalog.Pairs
// resolved it once, for every later service to read.
type vectors struct {
	X     [][]float64
	Names []string
	Pairs *table.Table
	rows  *table.Pairs
}

// pool is the active-learning pool over the vectors' pairs.
func (v *vectors) pool() *active.Pool {
	return &active.Pool{X: v.X, Pairs: v.rows, Names: v.Names}
}

// labels is the stored form of a labeling round, aligned with a pair
// table's rows.
type labels struct {
	Y     []int
	Pairs *table.Table
}

// decoded is the Run of a service that reads its arguments through a
// decoder.
func decoded(body func(d *decoder) (any, error)) func(*JobContext, Args) (any, error) {
	return func(ctx *JobContext, a Args) (any, error) { return body(&decoder{ctx: ctx, args: a}) }
}

// labelRun is label_pairs and crowd_label_pairs: the job's labeler answers
// for every pair of a pair table.
var labelRun = decoded(func(d *decoder) (any, error) {
	p, meta := d.pairs("pairs")
	if d.err != nil {
		return nil, d.err
	}
	y := make([]int, p.Len())
	for i := 0; i < p.Len(); i++ {
		if d.ctx.Labeler.Label(p.Get(i, meta.LID).AsString(), p.Get(i, meta.RID).AsString()) {
			y[i] = 1
		}
	}
	return d.put("out", "labels", &labels{Y: y, Pairs: p}, fmt.Sprintf("%d labels", len(y)))
})

// standardServices is the catalog of Table 4: the 18 basic services, then
// the 2 composite ones.
func standardServices() []*Service {
	return []*Service{{
		Name: "upload_dataset", Kind: KindBatch,
		Doc: "parse a CSV payload into a named table",
		Run: decoded(func(d *decoder) (any, error) {
			csv, out := d.str("csv"), d.str("out")
			if d.err != nil {
				return nil, d.err
			}
			t, err := table.ReadCSV(strings.NewReader(csv), out)
			if err != nil {
				return nil, err
			}
			d.ctx.Put(out, t)
			return fmt.Sprintf("%d rows", t.Len()), nil
		}),
	}, {
		Name: "set_key", Kind: KindUser,
		Doc: "declare (and validate) a table's key column",
		Run: decoded(func(d *decoder) (any, error) {
			t, key := d.table("table"), d.str("key")
			if d.err != nil {
				return nil, d.err
			}
			return nil, t.SetKey(key)
		}),
	}, {
		Name: "profile_dataset", Kind: KindBatch,
		Doc: "per-column statistics of a table",
		Run: decoded(func(d *decoder) (any, error) {
			t, topK := d.table("table"), d.countOr("top_k", 5)
			if d.err != nil {
				return nil, d.err
			}
			return t.Profile(topK), nil
		}),
	}, {
		Name: "edit_metadata", Kind: KindUser,
		Doc: "rename a table (catalog metadata edit)",
		Run: decoded(func(d *decoder) (any, error) {
			t, name := d.table("table"), d.str("name")
			if d.err != nil {
				return nil, d.err
			}
			t.SetName(name)
			return nil, nil
		}),
	}, {
		Name: "down_sample", Kind: KindBatch,
		Doc: "intelligently down-sample two tables preserving matches",
		Run: decoded(func(d *decoder) (any, error) {
			at, bt := d.table("a"), d.table("b")
			sizeA, sizeB := d.countOr("size_a", 1000), d.countOr("size_b", 1000)
			if d.err != nil {
				return nil, d.err
			}
			rng := rand.New(rand.NewSource(d.ctx.Seed))
			// On every core, as extract_features is.
			as, bs, err := table.DownSample(at, bt, sizeA, sizeB, rng, 0)
			if err != nil {
				return nil, err
			}
			if _, err := d.put("out_a", "a_sample", as, ""); err != nil {
				return nil, err
			}
			return d.put("out_b", "b_sample", bs, fmt.Sprintf("%d/%d rows", as.Len(), bs.Len()))
		}),
	}, {
		Name: "overlap_block", Kind: KindBatch,
		Doc: "token-overlap blocking into a candidate set",
		Run: decoded(func(d *decoder) (any, error) {
			at, bt := d.table("a"), d.table("b")
			attr, k := d.strOr("attr", ""), d.countOr("k", 1)
			if d.err != nil {
				return nil, d.err
			}
			var blk block.Blocker = block.WholeTupleOverlapBlocker{MinOverlap: k, Metrics: d.ctx.Metrics}
			if attr != "" {
				blk = block.OverlapBlocker{Attr: attr, MinOverlap: k, Metrics: d.ctx.Metrics}
			}
			cand, err := blk.Block(at, bt, d.ctx.Catalog)
			if err != nil {
				return nil, err
			}
			return d.put("out", "candidates", cand, fmt.Sprintf("%d pairs", cand.Len()))
		}),
	}, {
		Name: "sample_pairs", Kind: KindBatch,
		Doc: "random sample of a pair table",
		Run: decoded(func(d *decoder) (any, error) {
			p, meta := d.pairs("pairs")
			n := d.countOr("n", 100)
			if d.err != nil {
				return nil, d.err
			}
			s := p.Sample(n, rand.New(rand.NewSource(d.ctx.Seed+1)))
			if err := d.ctx.Catalog.RegisterPair(s, meta); err != nil {
				return nil, err
			}
			return d.put("out", "pair_sample", s, fmt.Sprintf("%d pairs", s.Len()))
		}),
	}, {
		Name: "generate_features", Kind: KindBatch,
		Doc: "auto-generate a similarity feature set for two tables",
		Run: decoded(func(d *decoder) (any, error) {
			at, bt := d.table("a"), d.table("b")
			if d.err != nil {
				return nil, d.err
			}
			fs, err := feature.AutoGenerate(at, bt)
			if err != nil {
				return nil, err
			}
			return d.put("out", "features", fs, fmt.Sprintf("%d features", fs.Len()))
		}),
	}, {
		Name: "extract_feature_vectors", Kind: KindBatch,
		Doc: "compute feature vectors for a candidate set",
		Run: decoded(func(d *decoder) (any, error) {
			fs, p := stored[*feature.Set](d, "features", "features"), d.table("pairs")
			if d.err != nil {
				return nil, d.err
			}
			rows, err := d.ctx.Catalog.Pairs(p)
			if err != nil {
				return nil, err
			}
			x, err := feature.Vectors(fs, rows, 0, d.ctx.Metrics)
			if err != nil {
				return nil, err
			}
			return d.put("out", "vectors", &vectors{X: x, Names: fs.Names(), Pairs: p, rows: rows}, fmt.Sprintf("%d vectors", len(x)))
		}),
	}, {
		Name: "label_pairs", Kind: KindUser,
		Doc: "the submitting user labels a pair sample", Run: labelRun,
	}, {
		Name: "crowd_label_pairs", Kind: KindCrowd,
		Doc: "crowd workers label a pair sample", Run: labelRun,
	}, {
		Name: "train_classifier", Kind: KindBatch,
		Doc: "train a matcher on labeled feature vectors",
		Run: decoded(func(d *decoder) (any, error) {
			v, l := stored[*vectors](d, "vectors", "vectors"), stored[*labels](d, "labels", "labels")
			name := d.strOr("model", "random_forest")
			if d.err != nil {
				return nil, d.err
			}
			if l.Pairs != v.Pairs {
				return nil, fmt.Errorf("cloud: labels and vectors come from different pair tables")
			}
			ds, err := ml.NewDataset(v.X, l.Y, v.Names)
			if err != nil {
				return nil, err
			}
			model, err := newClassifier(name, d.ctx.Seed)
			if err != nil {
				return nil, err
			}
			if err := model.Fit(ds); err != nil {
				return nil, err
			}
			return d.put("out", "classifier", model, model.Name())
		}),
	}, {
		Name: "predict_matches", Kind: KindBatch,
		Doc: "apply a trained matcher to a candidate set",
		Run: decoded(func(d *decoder) (any, error) {
			v, model := stored[*vectors](d, "vectors", "vectors"), stored[ml.Classifier](d, "classifier", "classifier")
			if d.err != nil {
				return nil, d.err
			}
			// On every core, as extract_features is.
			matches, err := table.PredictedPairs("matches", v.rows, d.ctx.Catalog, ml.PredictAll(model, v.X, 0))
			if err != nil {
				return nil, err
			}
			return d.put("out", "matches", matches, fmt.Sprintf("%d matches", matches.Len()))
		}),
	}, {
		Name: "evaluate_matches", Kind: KindUser,
		Doc: "the user spot-checks predicted matches (sampled accuracy)",
		Run: decoded(func(d *decoder) (any, error) {
			m, meta := d.pairs("matches")
			n := d.countOr("n", 50)
			if d.err != nil {
				return nil, d.err
			}
			s := m.Sample(n, rand.New(rand.NewSource(d.ctx.Seed+2)))
			correct := 0
			for i := 0; i < s.Len(); i++ {
				if d.ctx.Labeler.Label(s.Get(i, meta.LID).AsString(), s.Get(i, meta.RID).AsString()) {
					correct++
				}
			}
			if s.Len() == 0 {
				return 1.0, nil
			}
			return float64(correct) / float64(s.Len()), nil
		}),
	}, {
		Name: "extract_blocking_rules", Kind: KindBatch,
		Doc: "mine candidate blocking rules from a random forest",
		Run: decoded(func(d *decoder) (any, error) {
			learned, fs := stored[*active.Result](d, "forest", "forest"), stored[*feature.Set](d, "features", "features")
			if d.err != nil {
				return nil, d.err
			}
			rs, err := falcon.ExtractBlockingRules(learned.Forest, fs.Names())
			if err != nil {
				return nil, err
			}
			return d.put("out", "rules", rs, fmt.Sprintf("%d rules", rs.Len()))
		}),
	}, {
		Name: "evaluate_blocking_rules", Kind: KindUser,
		Doc: "the user reviews rules against labeled pairs; precise rules kept",
		Run: decoded(func(d *decoder) (any, error) {
			rs, v := stored[rules.RuleSet](d, "rules", "rules"), stored[*vectors](d, "vectors", "vectors")
			learned := stored[*active.Result](d, "forest", "forest")
			if d.err != nil {
				return nil, d.err
			}
			kept := falcon.EvaluateRules(rs, v.pool(), learned, d.ctx.Labeler, rand.New(rand.NewSource(d.ctx.Seed+3)))
			return d.put("out", "precise_rules", kept, fmt.Sprintf("%d/%d rules kept", kept.Len(), rs.Len()))
		}),
	}, {
		Name: "execute_blocking_rules", Kind: KindBatch,
		Doc: "block two tables with a rule set over a token-overlap seed",
		Run: decoded(func(d *decoder) (any, error) {
			at, bt := d.table("a"), d.table("b")
			rs, fs := stored[rules.RuleSet](d, "rules", "precise_rules"), stored[*feature.Set](d, "features", "features")
			k := d.countOr("k", 1)
			if d.err != nil {
				return nil, d.err
			}
			seed := block.WholeTupleOverlapBlocker{MinOverlap: k, Metrics: d.ctx.Metrics}
			rows, err := falcon.ExecuteRules(seed, rs, fs, at, bt)
			if err != nil {
				return nil, err
			}
			cand, err := rows.Table("candidates", d.ctx.Catalog)
			if err != nil {
				return nil, err
			}
			return d.put("out", "candidates", cand, fmt.Sprintf("%d pairs", cand.Len()))
		}),
	}, {
		Name: "debug_blocker", Kind: KindBatch,
		Doc: "surface likely matches a candidate set dropped; a pair naming an id its base table lacks comes back as the job's error (the catalog's FK check)",
		Run: decoded(func(d *decoder) (any, error) {
			p, topK := d.table("pairs"), d.countOr("top_k", 20)
			if d.err != nil {
				return nil, d.err
			}
			return block.DebugBlocker(p, d.ctx.Catalog, topK)
		}),
	}, {
		Name: "active_learning", Kind: KindUser, Composite: true,
		Doc: "active-learn a random forest over a candidate set",
		Run: decoded(func(d *decoder) (any, error) {
			v := stored[*vectors](d, "vectors", "vectors")
			cfg := active.Config{ // a count left out is 0, active's default
				Seed:      d.ctx.Seed + 5,
				SeedSize:  d.countOr("seed_size", 0),
				BatchSize: d.countOr("batch_size", 0),
				MaxRounds: d.countOr("max_rounds", 0),
			}
			if d.err != nil {
				return nil, d.err
			}
			res, err := active.Learn(v.pool(), d.ctx.Labeler, cfg)
			if err != nil {
				return nil, err
			}
			return d.put("out", "forest", res, fmt.Sprintf("%d labels", res.Labeled.Len()))
		}),
	}, {
		Name: "falcon", Kind: KindUser, Composite: true,
		Doc: "the end-to-end Falcon self-service EM workflow",
		Run: decoded(func(d *decoder) (any, error) {
			at, bt := d.table("a"), d.table("b")
			n, out := d.countOr("sample_size", 2000), d.strOr("out", "matches")
			if d.err != nil {
				return nil, d.err
			}
			res, err := falcon.Run(at, bt, d.ctx.Labeler, d.ctx.Catalog, falcon.Config{SampleSize: n, Seed: d.ctx.Seed + 6})
			if err != nil {
				return nil, err
			}
			d.ctx.Put(out, res.Matches)
			d.ctx.Put(out+"_result", res)
			return fmt.Sprintf("%d matches, %d questions", res.Matches.Len(), res.TotalQuestions()), nil
		}),
	}}
}

// newClassifier instantiates a matcher of ml.DefaultMatcherFactories by
// its family name.
func newClassifier(name string, seed int64) (ml.Classifier, error) {
	for _, f := range ml.DefaultMatcherFactories(seed) {
		if m := f(); m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("cloud: unknown classifier %q", name)
}
