// Package feature implements feature generation for entity matching: the
// "Creating Feature Vectors" step of the PyMatcher how-to guide. Given two
// tables to match, it infers a type for each corresponding attribute pair
// (short string, medium string, long text, numeric, boolean) and
// instantiates an appropriate battery of similarity features, producing
// names like jaccard_3gram_name — exactly the auto-generated feature sets
// the paper describes storing in the global variable F.
//
// The generated Set is explicitly user-editable (Remove, Add): the paper
// calls out customizability — "we give users ways to delete features from
// F, and to declaratively define more features then add them to F" — as a
// core design principle.
//
// Pair scoring (prepared.go) resolves a Set once into a plan: what each
// side prepares, and which features read the same (LAttr, RAttr) pair — an
// attribute group. A pair is scored group by group, sharing the null check,
// one intersection per interned column and one Jaro; a scan of one left
// record against many right ones (Set.VectorInto on one sim.Scratch)
// scores each distinct (left value, right value) once.
package feature

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// PairFunc scores the similarity of two attribute values rendered as
// strings. Implementations must return values in [0, 1] and must be pure —
// the same two strings always score the same bits — because a scan scores
// each distinct (left value, right value) once and reuses the result
// (Set.VectorInto).
type PairFunc func(l, r string) float64

// Feature computes one similarity score for a tuple pair.
type Feature struct {
	// Name is the stable identifier, e.g. "jaccard_ws_name"; rule
	// predicates reference features by this name.
	Name string
	// LAttr and RAttr are the attribute names in the left and right
	// tables.
	LAttr, RAttr string
	// Fn scores the pair of rendered attribute values. A feature built by
	// hand is scored by Fn alone.
	Fn PairFunc
	// need and prep, set by NewFeature for the registry's kinds, are the
	// feature's prepared path: prep scores two values prepared once per
	// record in the forms need names, bit for bit what Fn returns on their
	// strings.
	need need
	prep kernel
	// tok, setOf, jaro and winkler, set likewise, name what the feature
	// shares with the others over its attribute pair. A token-set kind
	// has tok and setOf: each record's value is lower-cased, tokenized by
	// tok and interned once, and the pair is scored by setOf, its
	// measure's formula over (|A∩B|, |A|, |B|), so one intersection serves
	// every set measure of a column (pinned to Fn by
	// TestVectorsCacheEquivalence). jaro marks the two kinds that are Jaro
	// — winkler the one with the prefix bonus — in place of a prep;
	// mongeElkan marks monge_elkan_jw, which pair scoring scores through
	// sim.MongeElkanJWScan, also in place of a prep: its kernel,
	// mongeElkanJWKernel, serves only onStrings, that is Fn.
	tok                       tokenize.Tokenizer
	setOf                     func(inter, na, nb int) float64
	jaro, winkler, mongeElkan bool
}

// MissingPolicy controls the score of a pair in which either attribute
// value is null.
type MissingPolicy int

const (
	// MissingZero scores pairs with a missing side as 0 (the default:
	// treat as total dissimilarity).
	MissingZero MissingPolicy = iota
	// MissingNeutral scores them 0.5, keeping the matcher from reading
	// systematic missingness as evidence of non-match.
	MissingNeutral
)

// Set is an ordered collection of features over a fixed pair of tables.
type Set struct {
	// Features is edited through Add and Remove, which also drop the
	// resolved plan pair scoring caches (prepared.go).
	Features []Feature
	Missing  MissingPolicy
	plan     atomic.Pointer[plan]
}

// Names returns the feature names in order.
func (s *Set) Names() []string {
	out := make([]string, len(s.Features))
	for i, f := range s.Features {
		out[i] = f.Name
	}
	return out
}

// Len returns the number of features.
func (s *Set) Len() int { return len(s.Features) }

// Add appends a manually defined feature, rejecting duplicate names.
func (s *Set) Add(f Feature) error {
	if f.Name == "" {
		return fmt.Errorf("feature: empty name")
	}
	if f.Fn == nil {
		return fmt.Errorf("feature %q: nil function", f.Name)
	}
	for _, g := range s.Features {
		if g.Name == f.Name {
			return fmt.Errorf("feature %q already defined", f.Name)
		}
	}
	s.Features = append(s.Features, f)
	s.plan.Store(nil)
	return nil
}

// Subset returns a new set containing only the named features, in the
// given order. Blocking-rule execution uses this to score candidates on
// just the features the rules reference, instead of the full battery.
func (s *Set) Subset(names ...string) (*Set, error) {
	out := &Set{Missing: s.Missing}
	for _, n := range names {
		found := false
		for _, f := range s.Features {
			if f.Name == n {
				if err := out.Add(f); err != nil {
					return nil, err
				}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("feature: subset: no feature %q", n)
		}
	}
	return out, nil
}

// Remove deletes the named feature; it reports whether it was present.
func (s *Set) Remove(name string) bool {
	for i, f := range s.Features {
		if f.Name == name {
			s.Features = append(s.Features[:i], s.Features[i+1:]...)
			s.plan.Store(nil)
			return true
		}
	}
	return false
}

// Vector computes the feature vector for one tuple pair. lrow and rrow are
// rows of the left and right tables whose schemas the set was generated
// for.
func (s *Set) Vector(lt, rt *table.Table, lrow, rrow table.Row) []float64 {
	x := make([]float64, len(s.Features))
	for i, f := range s.Features {
		li := lt.Schema().Lookup(f.LAttr)
		ri := rt.Schema().Lookup(f.RAttr)
		if li < 0 || ri < 0 {
			x[i] = s.missingScore()
			continue
		}
		lv, rv := lrow[li], rrow[ri]
		if lv.IsNull() || rv.IsNull() {
			x[i] = s.missingScore()
			continue
		}
		x[i] = f.Fn(lv.AsString(), rv.AsString())
	}
	return x
}

func (s *Set) missingScore() float64 {
	if s.Missing == MissingNeutral {
		return 0.5
	}
	return 0
}

// AttrType classifies an attribute for feature selection.
type AttrType int

// The attribute classes AutoGenerate distinguishes.
const (
	TypeNumeric AttrType = iota
	TypeBoolean
	TypeShortString  // ~1 word (names, codes, ids)
	TypeMediumString // 2–8 words (titles, addresses)
	TypeLongText     // > 8 words (descriptions)
)

// String names the type.
func (t AttrType) String() string {
	switch t {
	case TypeNumeric:
		return "numeric"
	case TypeBoolean:
		return "boolean"
	case TypeShortString:
		return "short_string"
	case TypeMediumString:
		return "medium_string"
	case TypeLongText:
		return "long_text"
	default:
		return "unknown"
	}
}

// InferType classifies a column by its declared kind and observed token
// statistics across both tables.
func InferType(kind table.Kind, avgTokens float64) AttrType {
	switch kind {
	case table.KindInt, table.KindFloat:
		return TypeNumeric
	case table.KindBool:
		return TypeBoolean
	}
	switch {
	case avgTokens <= 1.5:
		return TypeShortString
	case avgTokens <= 8:
		return TypeMediumString
	default:
		return TypeLongText
	}
}

// avgTokenCount returns the mean whitespace-token count of the column over
// both tables.
func avgTokenCount(a, b *table.Table, attr string) float64 {
	total, n := 0, 0
	for _, t := range []*table.Table{a, b} {
		j := t.Schema().Lookup(attr)
		if j < 0 {
			continue
		}
		for i := 0; i < t.Len(); i++ {
			v := t.Row(i)[j]
			if v.IsNull() {
				continue
			}
			total += len(strings.Fields(v.AsString()))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// AutoGenerate builds a feature set for matching tables a and b. Attribute
// correspondences are taken by identical column name; the tables' key
// columns and any names in exclude are skipped. This mirrors
// py_entitymatching's get_features_for_matching.
func AutoGenerate(a, b *table.Table, exclude ...string) (*Set, error) {
	skip := map[string]bool{a.Key(): true, b.Key(): true}
	for _, e := range exclude {
		skip[e] = true
	}
	s := &Set{}
	matched := 0
	for _, col := range a.Schema().Columns() {
		if skip[col.Name] {
			continue
		}
		// KindOf doubles as the existence check: an error means b has no
		// such column.
		bKind, err := b.Schema().KindOf(col.Name)
		if err != nil {
			continue
		}
		kind := col.Kind
		if bKind != kind {
			// Disagreeing kinds: fall back to string features.
			kind = table.KindString
		}
		matched++
		at := InferType(kind, avgTokenCount(a, b, col.Name))
		for _, kind := range kindsFor(at) {
			f, err := NewFeature(kind, col.Name)
			if err != nil {
				return nil, err
			}
			if err := s.Add(f); err != nil {
				return nil, err
			}
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("feature: tables %q and %q share no non-key attributes", a.Name(), b.Name())
	}
	return s, nil
}

// kindsFor lists the builder kinds (registry.go) of the feature battery
// appropriate to an attribute type.
func kindsFor(at AttrType) []string {
	switch at {
	case TypeNumeric:
		return []string{"exact", "rel_diff", "lev"}
	case TypeBoolean:
		return []string{"exact"}
	case TypeShortString:
		return []string{"exact", "lev", "jaro", "jaro_winkler", "jaccard_3gram", "soundex"}
	case TypeMediumString:
		return []string{"exact", "lev", "jaccard_ws", "jaccard_3gram", "cosine_ws", "overlap_coeff_ws", "monge_elkan_jw"}
	default: // TypeLongText
		return []string{"jaccard_ws", "cosine_ws", "dice_ws", "overlap_coeff_ws"}
	}
}

// tokenized lifts a token-set similarity into a PairFunc via a tokenizer.
func tokenized(tok tokenize.Tokenizer, f func(a, b []string) float64) PairFunc {
	return func(l, r string) float64 {
		return f(tok.Tokenize(strings.ToLower(l)), tok.Tokenize(strings.ToLower(r)))
	}
}

// mongeElkanJW is symmetric Monge-Elkan with Jaro-Winkler inside, over the
// lower-cased whitespace token bags.
func mongeElkanJW(l, r string) float64 { return onStrings(l, r, needTokens, mongeElkanJWKernel) }

func mongeElkanJWKernel(l, r value, sc *sim.Scratch) float64 {
	return sim.MongeElkanJWRunes(l.bag(), r.bag(), sc)
}

// RelDiff scores two numeric strings by 1 - |a-b| / max(|a|,|b|), clamped
// to [0, 1]; non-numeric inputs fall back to exact match.
func RelDiff(l, r string) float64 { return onStrings(l, r, needNumber, relDiffKernel) }

func relDiffKernel(l, r value, _ *sim.Scratch) float64 {
	lv, lok := l.number()
	rv, rok := r.number()
	if !lok || !rok {
		return sim.ExactMatch(l.str(), r.str())
	}
	if lv == rv {
		return 1
	}
	den := math.Max(math.Abs(lv), math.Abs(rv))
	if den == 0 {
		return 1
	}
	d := 1 - math.Abs(lv-rv)/den
	if d < 0 {
		return 0
	}
	return d
}
