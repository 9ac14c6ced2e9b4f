package feature

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

// builder is one registered feature kind: the string path every feature
// has, plus — for the token-set kinds — the tokenizer and the formula over
// the interned sets' counts (Feature.tok, Feature.setOf), and — for the
// character-level kinds every AutoGenerate battery draws on — the prepared
// forms and the kernel over them (Feature.need, Feature.prep; Feature.jaro
// for the two Jaro kinds, Feature.mongeElkan for the one a scan scores
// through its token memo). exact needs only the string.
type builder struct {
	fn    PairFunc
	tok   tokenize.Tokenizer
	setOf func(inter, na, nb int) float64
	need  need
	prep  kernel

	jaro, winkler, mongeElkan bool
}

func levKernel(l, r value, sc *sim.Scratch) float64 {
	return sim.LevenshteinRunes(l.runes(), r.runes(), sc)
}

func soundexKernel(l, r value, _ *sim.Scratch) float64 {
	return sim.SoundexCodeSim(l.soundex(), r.soundex())
}

// setBuilder registers a token-set kind: fn over tok's tokens is the string
// path, and setOf the formula fn applies to its counts, which pair scoring
// applies to the interned sets' one intersection (package sim's set.go).
func setBuilder(tok tokenize.Tokenizer, setOf func(inter, na, nb int) float64, fn func(a, b []string) float64) builder {
	return builder{fn: tokenized(tok, fn), tok: tok, setOf: setOf}
}

// builders maps a builder kind — the prefix of generated feature names,
// e.g. "jaccard_3gram" in "jaccard_3gram_name" — to what a feature of that
// kind computes. It is the one table of feature kinds: AutoGenerate
// instantiates from it, and it is what lets a feature set round-trip
// through the workflow persistence layer with its fast path intact — a
// serialized feature is just (kind, attribute).
var builders = func() map[string]builder {
	ws := tokenize.Whitespace{ReturnSet: true}
	g3 := tokenize.QGram{Q: 3, ReturnSet: true}
	g2 := tokenize.QGram{Q: 2, ReturnSet: true}
	return map[string]builder{
		"exact":            {fn: sim.ExactMatch},
		"lev":              {fn: sim.Levenshtein, need: needRunes, prep: levKernel},
		"jaro":             {fn: sim.Jaro, need: needRunes, jaro: true},
		"jaro_winkler":     {fn: sim.JaroWinkler, need: needRunes, jaro: true, winkler: true},
		"soundex":          {fn: sim.SoundexSim, need: needSoundex, prep: soundexKernel},
		"rel_diff":         {fn: RelDiff, need: needNumber, prep: relDiffKernel},
		"monge_elkan_jw":   {fn: mongeElkanJW, need: needTokens, prep: mongeElkanJWKernel, mongeElkan: true},
		"jaccard_ws":       setBuilder(ws, sim.JaccardOf, sim.Jaccard),
		"jaccard_3gram":    setBuilder(g3, sim.JaccardOf, sim.Jaccard),
		"jaccard_2gram":    setBuilder(g2, sim.JaccardOf, sim.Jaccard),
		"cosine_ws":        setBuilder(ws, sim.CosineOf, sim.CosineSet),
		"dice_ws":          setBuilder(ws, sim.DiceOf, sim.Dice),
		"overlap_coeff_ws": setBuilder(ws, sim.OverlapCoefficientOf, sim.OverlapCoefficient),
	}
}()

// BuilderKinds returns the registered builder kinds, sorted.
func BuilderKinds() []string {
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewFeature constructs the feature "<kind>_<attr>" comparing the same
// attribute of both tables with the registered builder.
func NewFeature(kind, attr string) (Feature, error) {
	b, ok := builders[kind]
	if !ok {
		return Feature{}, fmt.Errorf("feature: unknown builder kind %q (have %v)", kind, BuilderKinds())
	}
	return Feature{Name: kind + "_" + attr, LAttr: attr, RAttr: attr, Fn: b.fn, need: b.need, prep: b.prep, tok: b.tok, setOf: b.setOf, jaro: b.jaro, winkler: b.winkler, mongeElkan: b.mongeElkan}, nil
}

// Spec is the serializable form of one feature. Only same-attribute,
// registry-built features round-trip; custom Fn features must be re-added
// in code after loading.
type Spec struct {
	Kind string `json:"kind"`
	Attr string `json:"attr"`
}

// Specs returns the serializable form of the set. It fails when the set
// contains a feature whose name does not decompose into a registered
// builder kind plus attribute (i.e. a custom feature).
func (s *Set) Specs() ([]Spec, error) {
	out := make([]Spec, 0, len(s.Features))
	for _, f := range s.Features {
		kind, ok := kindOf(f.Name, f.LAttr)
		if !ok {
			return nil, fmt.Errorf("feature: %q is not registry-built and cannot be serialized", f.Name)
		}
		out = append(out, Spec{Kind: kind, Attr: f.LAttr})
	}
	return out, nil
}

// kindOf recovers the builder kind from a generated feature name.
func kindOf(name, attr string) (string, bool) {
	suffix := "_" + attr
	if len(name) <= len(suffix) || name[len(name)-len(suffix):] != suffix {
		return "", false
	}
	kind := name[:len(name)-len(suffix)]
	_, ok := builders[kind]
	return kind, ok
}

// FromSpecs rebuilds a feature set from its serializable form.
func FromSpecs(specs []Spec, missing MissingPolicy) (*Set, error) {
	s := &Set{Missing: missing}
	for _, sp := range specs {
		f, err := NewFeature(sp.Kind, sp.Attr)
		if err != nil {
			return nil, err
		}
		if err := s.Add(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}
