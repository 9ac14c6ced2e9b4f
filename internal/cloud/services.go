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

// vectors is the stored form of extracted feature matrices.
type vectors struct {
	X     [][]float64
	Names []string
	Pairs *table.Table
}

// labels is the stored form of a labeling round, aligned with a pair
// table's rows.
type labels struct {
	Y     []int
	Pairs *table.Table
}

// registerBasic installs the 18 basic services of Table 4.
func registerBasic(r *Registry) {
	mustRegister := func(s *Service) {
		if err := r.Register(s); err != nil {
			panic(err)
		}
	}

	mustRegister(&Service{
		Name: "upload_dataset", Kind: KindBatch,
		Doc: "parse a CSV payload into a named table",
		Run: func(ctx *JobContext, a Args) (any, error) {
			csv, err := a.Str("csv")
			if err != nil {
				return nil, err
			}
			out, err := a.Str("out")
			if err != nil {
				return nil, err
			}
			t, err := table.ReadCSV(strings.NewReader(csv), out)
			if err != nil {
				return nil, err
			}
			ctx.Put(out, t)
			return fmt.Sprintf("%d rows", t.Len()), nil
		},
	})

	mustRegister(&Service{
		Name: "set_key", Kind: KindUser,
		Doc: "declare (and validate) a table's key column",
		Run: func(ctx *JobContext, a Args) (any, error) {
			t, err := argTable(ctx, a, "table")
			if err != nil {
				return nil, err
			}
			key, err := a.Str("key")
			if err != nil {
				return nil, err
			}
			return nil, t.SetKey(key)
		},
	})

	mustRegister(&Service{
		Name: "profile_dataset", Kind: KindBatch,
		Doc: "per-column statistics of a table",
		Run: func(ctx *JobContext, a Args) (any, error) {
			t, err := argTable(ctx, a, "table")
			if err != nil {
				return nil, err
			}
			topK, err := a.IntOr("top_k", 5)
			if err != nil {
				return nil, err
			}
			return t.Profile(topK), nil
		},
	})

	mustRegister(&Service{
		Name: "edit_metadata", Kind: KindUser,
		Doc: "rename a table (catalog metadata edit)",
		Run: func(ctx *JobContext, a Args) (any, error) {
			t, err := argTable(ctx, a, "table")
			if err != nil {
				return nil, err
			}
			name, err := a.Str("name")
			if err != nil {
				return nil, err
			}
			t.SetName(name)
			return nil, nil
		},
	})

	mustRegister(&Service{
		Name: "down_sample", Kind: KindBatch,
		Doc: "intelligently down-sample two tables preserving matches",
		Run: func(ctx *JobContext, a Args) (any, error) {
			at, err := argTable(ctx, a, "a")
			if err != nil {
				return nil, err
			}
			bt, err := argTable(ctx, a, "b")
			if err != nil {
				return nil, err
			}
			sizeA, err := a.IntOr("size_a", 1000)
			if err != nil {
				return nil, err
			}
			sizeB, err := a.IntOr("size_b", 1000)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(ctx.Seed))
			as, bs, err := table.DownSample(at, bt, sizeA, sizeB, rng)
			if err != nil {
				return nil, err
			}
			if _, err := store(ctx, a, "out_a", "a_sample", as, ""); err != nil {
				return nil, err
			}
			return store(ctx, a, "out_b", "b_sample", bs, fmt.Sprintf("%d/%d rows", as.Len(), bs.Len()))
		},
	})

	mustRegister(&Service{
		Name: "overlap_block", Kind: KindBatch,
		Doc: "token-overlap blocking into a candidate set",
		Run: func(ctx *JobContext, a Args) (any, error) {
			at, err := argTable(ctx, a, "a")
			if err != nil {
				return nil, err
			}
			bt, err := argTable(ctx, a, "b")
			if err != nil {
				return nil, err
			}
			attr, err := a.StrOr("attr", "")
			if err != nil {
				return nil, err
			}
			k, err := a.IntOr("k", 1)
			if err != nil {
				return nil, err
			}
			var blk block.Blocker = block.WholeTupleOverlapBlocker{MinOverlap: k, Metrics: ctx.Metrics}
			if attr != "" {
				blk = block.OverlapBlocker{Attr: attr, MinOverlap: k, Metrics: ctx.Metrics}
			}
			cand, err := blk.Block(at, bt, ctx.Catalog)
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "candidates", cand, fmt.Sprintf("%d pairs", cand.Len()))
		},
	})

	mustRegister(&Service{
		Name: "sample_pairs", Kind: KindBatch,
		Doc: "random sample of a pair table",
		Run: func(ctx *JobContext, a Args) (any, error) {
			p, err := argTable(ctx, a, "pairs")
			if err != nil {
				return nil, err
			}
			meta, ok := ctx.Catalog.PairMeta(p)
			if !ok {
				return nil, fmt.Errorf("cloud: %q is not a registered pair table", p.Name())
			}
			n, err := a.IntOr("n", 100)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(ctx.Seed + 1))
			s := p.Sample(n, rng)
			if err := ctx.Catalog.RegisterPair(s, meta); err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "pair_sample", s, fmt.Sprintf("%d pairs", s.Len()))
		},
	})

	mustRegister(&Service{
		Name: "generate_features", Kind: KindBatch,
		Doc: "auto-generate a similarity feature set for two tables",
		Run: func(ctx *JobContext, a Args) (any, error) {
			at, err := argTable(ctx, a, "a")
			if err != nil {
				return nil, err
			}
			bt, err := argTable(ctx, a, "b")
			if err != nil {
				return nil, err
			}
			fs, err := feature.AutoGenerate(at, bt)
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "features", fs, fmt.Sprintf("%d features", fs.Len()))
		},
	})

	mustRegister(&Service{
		Name: "extract_feature_vectors", Kind: KindBatch,
		Doc: "compute feature vectors for a candidate set",
		Run: func(ctx *JobContext, a Args) (any, error) {
			fs, err := stored[*feature.Set](ctx, a, "features", "features")
			if err != nil {
				return nil, err
			}
			p, err := argTable(ctx, a, "pairs")
			if err != nil {
				return nil, err
			}
			x, err := feature.Vectors(fs, p, ctx.Catalog, feature.ExtractOptions{Metrics: ctx.Metrics})
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "vectors", &vectors{X: x, Names: fs.Names(), Pairs: p}, fmt.Sprintf("%d vectors", len(x)))
		},
	})

	labelRun := func(ctx *JobContext, a Args) (any, error) {
		p, err := argTable(ctx, a, "pairs")
		if err != nil {
			return nil, err
		}
		meta, ok := ctx.Catalog.PairMeta(p)
		if !ok {
			return nil, fmt.Errorf("cloud: %q is not a registered pair table", p.Name())
		}
		y := make([]int, p.Len())
		for i := 0; i < p.Len(); i++ {
			if ctx.Labeler.Label(p.Get(i, meta.LID).AsString(), p.Get(i, meta.RID).AsString()) {
				y[i] = 1
			}
		}
		return store(ctx, a, "out", "labels", &labels{Y: y, Pairs: p}, fmt.Sprintf("%d labels", len(y)))
	}
	mustRegister(&Service{
		Name: "label_pairs", Kind: KindUser,
		Doc: "the submitting user labels a pair sample", Run: labelRun,
	})
	mustRegister(&Service{
		Name: "crowd_label_pairs", Kind: KindCrowd,
		Doc: "crowd workers label a pair sample", Run: labelRun,
	})

	mustRegister(&Service{
		Name: "train_classifier", Kind: KindBatch,
		Doc: "train a matcher on labeled feature vectors",
		Run: func(ctx *JobContext, a Args) (any, error) {
			v, err := stored[*vectors](ctx, a, "vectors", "vectors")
			if err != nil {
				return nil, err
			}
			l, err := stored[*labels](ctx, a, "labels", "labels")
			if err != nil {
				return nil, err
			}
			if l.Pairs != v.Pairs {
				return nil, fmt.Errorf("cloud: labels and vectors come from different pair tables")
			}
			ds, err := ml.NewDataset(v.X, l.Y, v.Names)
			if err != nil {
				return nil, err
			}
			name, err := a.StrOr("model", "random_forest")
			if err != nil {
				return nil, err
			}
			model, err := newClassifier(name, ctx.Seed)
			if err != nil {
				return nil, err
			}
			if err := model.Fit(ds); err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "classifier", model, model.Name())
		},
	})

	mustRegister(&Service{
		Name: "predict_matches", Kind: KindBatch,
		Doc: "apply a trained matcher to a candidate set",
		Run: func(ctx *JobContext, a Args) (any, error) {
			v, err := stored[*vectors](ctx, a, "vectors", "vectors")
			if err != nil {
				return nil, err
			}
			model, err := stored[ml.Classifier](ctx, a, "classifier", "classifier")
			if err != nil {
				return nil, err
			}
			matches, err := table.PredictedPairs("matches", v.Pairs, ctx.Catalog, ml.PredictAll(model, v.X))
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "matches", matches, fmt.Sprintf("%d matches", matches.Len()))
		},
	})

	mustRegister(&Service{
		Name: "evaluate_matches", Kind: KindUser,
		Doc: "the user spot-checks predicted matches (sampled accuracy)",
		Run: func(ctx *JobContext, a Args) (any, error) {
			m, err := argTable(ctx, a, "matches")
			if err != nil {
				return nil, err
			}
			meta, ok := ctx.Catalog.PairMeta(m)
			if !ok {
				return nil, fmt.Errorf("cloud: %q is not a registered pair table", m.Name())
			}
			n, err := a.IntOr("n", 50)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(ctx.Seed + 2))
			s := m.Sample(n, rng)
			correct := 0
			for i := 0; i < s.Len(); i++ {
				if ctx.Labeler.Label(s.Get(i, meta.LID).AsString(), s.Get(i, meta.RID).AsString()) {
					correct++
				}
			}
			if s.Len() == 0 {
				return 1.0, nil
			}
			return float64(correct) / float64(s.Len()), nil
		},
	})

	mustRegister(&Service{
		Name: "extract_blocking_rules", Kind: KindBatch,
		Doc: "mine candidate blocking rules from a random forest",
		Run: func(ctx *JobContext, a Args) (any, error) {
			learned, err := stored[*active.Result](ctx, a, "forest", "forest")
			if err != nil {
				return nil, err
			}
			fs, err := stored[*feature.Set](ctx, a, "features", "features")
			if err != nil {
				return nil, err
			}
			rs, err := falcon.ExtractBlockingRules(learned.Forest, fs.Names())
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "rules", rs, fmt.Sprintf("%d rules", rs.Len()))
		},
	})

	mustRegister(&Service{
		Name: "evaluate_blocking_rules", Kind: KindUser,
		Doc: "the user reviews rules against labeled pairs; precise rules kept",
		Run: func(ctx *JobContext, a Args) (any, error) {
			rs, err := stored[rules.RuleSet](ctx, a, "rules", "rules")
			if err != nil {
				return nil, err
			}
			v, err := stored[*vectors](ctx, a, "vectors", "vectors")
			if err != nil {
				return nil, err
			}
			learned, err := stored[*active.Result](ctx, a, "forest", "forest")
			if err != nil {
				return nil, err
			}
			pool, err := active.PoolFromPairs(v.Pairs, ctx.Catalog, v.X, v.Names)
			if err != nil {
				return nil, err
			}
			kept := falcon.EvaluateRules(rs, pool, learned, ctx.Labeler, rand.New(rand.NewSource(ctx.Seed+3)))
			return store(ctx, a, "out", "precise_rules", kept, fmt.Sprintf("%d/%d rules kept", kept.Len(), rs.Len()))
		},
	})

	mustRegister(&Service{
		Name: "execute_blocking_rules", Kind: KindBatch,
		Doc: "block two tables with a rule set over a token-overlap seed",
		Run: func(ctx *JobContext, a Args) (any, error) {
			at, err := argTable(ctx, a, "a")
			if err != nil {
				return nil, err
			}
			bt, err := argTable(ctx, a, "b")
			if err != nil {
				return nil, err
			}
			rs, err := stored[rules.RuleSet](ctx, a, "rules", "precise_rules")
			if err != nil {
				return nil, err
			}
			fs, err := stored[*feature.Set](ctx, a, "features", "features")
			if err != nil {
				return nil, err
			}
			k, err := a.IntOr("k", 1)
			if err != nil {
				return nil, err
			}
			seed := block.WholeTupleOverlapBlocker{MinOverlap: k, Metrics: ctx.Metrics}
			cand, err := falcon.ExecuteRules(seed, rs, fs, at, bt, ctx.Catalog)
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "candidates", cand, fmt.Sprintf("%d pairs", cand.Len()))
		},
	})

	mustRegister(&Service{
		Name: "debug_blocker", Kind: KindBatch,
		Doc: "surface likely matches a candidate set dropped",
		Run: func(ctx *JobContext, a Args) (any, error) {
			p, err := argTable(ctx, a, "pairs")
			if err != nil {
				return nil, err
			}
			topK, err := a.IntOr("top_k", 20)
			if err != nil {
				return nil, err
			}
			return block.DebugBlocker(p, ctx.Catalog, topK)
		},
	})

}

// registerComposite installs the 2 composite services.
func registerComposite(r *Registry) {
	mustRegister := func(s *Service) {
		if err := r.Register(s); err != nil {
			panic(err)
		}
	}

	mustRegister(&Service{
		Name: "active_learning", Kind: KindUser, Composite: true,
		Doc: "active-learn a random forest over a candidate set",
		Run: func(ctx *JobContext, a Args) (any, error) {
			v, err := stored[*vectors](ctx, a, "vectors", "vectors")
			if err != nil {
				return nil, err
			}
			pool, err := active.PoolFromPairs(v.Pairs, ctx.Catalog, v.X, v.Names)
			if err != nil {
				return nil, err
			}
			cfg := active.Config{Seed: ctx.Seed + 5}
			if cfg.SeedSize, err = a.IntOr("seed_size", 20); err != nil {
				return nil, err
			}
			if cfg.BatchSize, err = a.IntOr("batch_size", 10); err != nil {
				return nil, err
			}
			if cfg.MaxRounds, err = a.IntOr("max_rounds", 20); err != nil {
				return nil, err
			}
			res, err := active.Learn(pool, ctx.Labeler, cfg)
			if err != nil {
				return nil, err
			}
			return store(ctx, a, "out", "forest", res, fmt.Sprintf("%d labels", res.Labeled.Len()))
		},
	})

	mustRegister(&Service{
		Name: "falcon", Kind: KindUser, Composite: true,
		Doc: "the end-to-end Falcon self-service EM workflow",
		Run: func(ctx *JobContext, a Args) (any, error) {
			at, err := argTable(ctx, a, "a")
			if err != nil {
				return nil, err
			}
			bt, err := argTable(ctx, a, "b")
			if err != nil {
				return nil, err
			}
			n, err := a.IntOr("sample_size", 2000)
			if err != nil {
				return nil, err
			}
			out, err := a.StrOr("out", "matches")
			if err != nil {
				return nil, err
			}
			res, err := falcon.Run(at, bt, ctx.Labeler, ctx.Catalog, falcon.Config{SampleSize: n, Seed: ctx.Seed + 6})
			if err != nil {
				return nil, err
			}
			ctx.Put(out, res.Matches)
			ctx.Put(out+"_result", res)
			return fmt.Sprintf("%d matches, %d questions", res.Matches.Len(), res.TotalQuestions()), nil
		},
	})
}

func argTable(ctx *JobContext, a Args, key string) (*table.Table, error) {
	name, err := a.Str(key)
	if err != nil {
		return nil, err
	}
	return ctx.Table(name)
}

// stored fetches the job-store object the argument key names (def when the
// argument is absent) as a T.
func stored[T any](ctx *JobContext, a Args, key, def string) (t T, err error) {
	name, err := a.StrOr(key, def)
	if err != nil {
		return t, err
	}
	return object[T](ctx, name)
}

// store ends a service: it puts the product v under the name the argument
// key gives (def when absent) and returns the step's summary.
func store(ctx *JobContext, a Args, key, def string, v any, summary string) (any, error) {
	name, err := a.StrOr(key, def)
	if err != nil {
		return nil, err
	}
	ctx.Put(name, v)
	return summary, nil
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
