package falcon

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/table"
)

// tupleColumn is the one string column Smurf matches on, and smurfKinds
// the seven registered measures it scores there.
const tupleColumn = "tuple"

var smurfKinds = []string{"lev", "jaro", "jaro_winkler", "jaccard_ws", "jaccard_3gram", "cosine_ws", "monge_elkan_jw"}

// Smurf runs Smurf (Suganthan G.C. et al., PVLDB 2019), the self-service
// string matcher §5.3 of the progress report folds into CloudMatcher: Falcon
// with the rule rounds removed. Each tuple becomes one string, its key and
// its lower-cased table.WholeTupleStrings; steps 1 and 2 of Run learn one
// forest on those strings (seeded as Run's blocking stage, with the
// active-learning defaults at any budget), and that forest then runs as
// both blocker and matcher over every pair sharing a whole-tuple token, so
// the rule-validation and second-matcher labeling rounds disappear — the
// paper reports 43–76% fewer labels at the same accuracy.
//
// All questions are BlockingQuestions and Matcher is the one forest.
// CandidateRules, BlockingRules, Candidates, MatchingQuestions and
// RuleQuestions stay empty.
func Smurf(a, b *table.Table, lab label.Labeler, cat *table.Catalog, cfg Config) (*Result, error) {
	start := time.Now()
	sa, sb, fs, err := smurfInput(a, b)
	if err != nil {
		return nil, err
	}
	before := lab.Stats().Questions
	_, learned, joined, err := learnOnSample(sa, sb, fs, lab, cfg.sampleSize(), active.Config{Seed: cfg.Seed + 1}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	w := core.Workflow{Blocker: joined, Features: fs, Matcher: learned.Forest}
	out, err := w.Execute(sa, sb, cat)
	if err != nil {
		return nil, fmt.Errorf("falcon: smurf: %w", err)
	}
	return &Result{
		Features:          fs,
		Matches:           out.Matches,
		Matcher:           learned.Forest,
		BlockingQuestions: lab.Stats().Questions - before,
		MachineTime:       time.Since(start),
	}, nil
}

// smurfInput returns a and b as Smurf reads them, each reduced to its key
// and tupleColumn, and the battery over that column.
func smurfInput(a, b *table.Table) (sa, sb *table.Table, fs *feature.Set, err error) {
	strs := func(t *table.Table) (*table.Table, error) {
		kj := t.Schema().Lookup(t.Key())
		if kj < 0 || t.Key() == tupleColumn {
			return nil, fmt.Errorf("falcon: smurf: table %q needs a key other than %q", t.Name(), tupleColumn)
		}
		out := table.New(t.Name(), table.StringSchema(t.Key(), tupleColumn))
		for i, s := range table.WholeTupleStrings(t) {
			out.MustAppend(table.String(t.Row(i)[kj].AsString()), table.String(strings.ToLower(s)))
		}
		return out, out.SetKey(t.Key())
	}
	if sa, err = strs(a); err != nil {
		return nil, nil, nil, err
	}
	if sb, err = strs(b); err != nil {
		return nil, nil, nil, err
	}
	specs := make([]feature.Spec, len(smurfKinds))
	for i, kind := range smurfKinds {
		specs[i] = feature.Spec{Kind: kind, Attr: tupleColumn}
	}
	fs, err = feature.FromSpecs(specs, feature.MissingZero)
	return sa, sb, fs, err
}
