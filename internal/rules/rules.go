// Package rules implements the declarative rule layer of the Magellan
// reproduction: the "rule specification and execution" commands of
// PyMatcher (Table 3) and the blocking rules Falcon extracts from random
// forests (Figure 4).
//
// A Rule is a named conjunction of threshold predicates over feature
// values, e.g.
//
//	jaccard_3gram_isbn <= 0.5 AND lev_pages <= 0.5
//
// and a RuleSet is a disjunction of rules. Rules are used two ways:
//
//   - as blocking rules: a pair is DROPPED when any rule fires (each rule
//     describes a provably-non-matching region), and
//   - as match rules: a pair is declared a match when any rule fires,
//     typically layered on top of an ML matcher's predictions.
package rules

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is a comparison operator of a predicate.
type Op int

// The supported comparison operators.
const (
	LE Op = iota // <=
	LT           // <
	GE           // >=
	GT           // >
	EQ           // ==
	NE           // !=
)

// String returns the operator's source form.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case LT:
		return "<"
	case GE:
		return ">="
	case GT:
		return ">"
	case EQ:
		return "=="
	case NE:
		return "!="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Apply evaluates "v op threshold".
func (o Op) Apply(v, threshold float64) bool {
	switch o {
	case LE:
		return v <= threshold
	case LT:
		return v < threshold
	case GE:
		return v >= threshold
	case GT:
		return v > threshold
	case EQ:
		return v == threshold
	case NE:
		return v != threshold
	default:
		return false
	}
}

// Predicate is one "feature op value" clause.
type Predicate struct {
	Feature string
	Op      Op
	Value   float64
}

// String renders the predicate in its source form.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Feature, p.Op, strconv.FormatFloat(p.Value, 'g', -1, 64))
}

// Rule is a named conjunction of predicates. An empty conjunction never
// fires (a rule that dropped every pair would be useless and dangerous).
type Rule struct {
	Name       string
	Predicates []Predicate
}

// String renders the rule as "p1 AND p2 AND ...".
func (r Rule) String() string {
	parts := make([]string, len(r.Predicates))
	for i, p := range r.Predicates {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// RuleSet is an ordered disjunction of rules.
type RuleSet struct {
	Rules []Rule
}

// Add appends a rule.
func (rs *RuleSet) Add(r Rule) { rs.Rules = append(rs.Rules, r) }

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// CompiledRule evaluates a Rule against positional feature vectors without
// per-pair map lookups. Build one with Compile.
type CompiledRule struct {
	idx   []int
	ops   []Op
	value []float64
}

// Compile resolves the rule's feature names against the given feature-name
// order. It fails fast when a rule references an unknown feature — the
// self-containment principle: a rule must not silently evaluate to false
// because a feature went missing.
func Compile(r Rule, featureNames []string) (*CompiledRule, error) {
	pos := make(map[string]int, len(featureNames))
	for i, n := range featureNames {
		pos[n] = i
	}
	c := &CompiledRule{}
	for _, p := range r.Predicates {
		i, ok := pos[p.Feature]
		if !ok {
			return nil, fmt.Errorf("rules: rule %q references unknown feature %q", r.Name, p.Feature)
		}
		c.idx = append(c.idx, i)
		c.ops = append(c.ops, p.Op)
		c.value = append(c.value, p.Value)
	}
	return c, nil
}

// Fires reports whether every predicate holds on the feature vector x.
// An empty rule never fires.
func (c *CompiledRule) Fires(x []float64) bool {
	if len(c.idx) == 0 {
		return false
	}
	for k, i := range c.idx {
		if !c.ops[k].Apply(x[i], c.value[k]) {
			return false
		}
	}
	return true
}

// CompiledRuleSet evaluates a RuleSet positionally.
type CompiledRuleSet struct {
	rules []*CompiledRule
}

// CompileSet compiles every rule of the set.
func CompileSet(rs RuleSet, featureNames []string) (*CompiledRuleSet, error) {
	out := &CompiledRuleSet{}
	for _, r := range rs.Rules {
		c, err := Compile(r, featureNames)
		if err != nil {
			return nil, err
		}
		out.rules = append(out.rules, c)
	}
	return out, nil
}

// AnyFires reports whether any rule of the set fires on x, and which
// (first match); index is -1 when none fire.
func (c *CompiledRuleSet) AnyFires(x []float64) (fired bool, index int) {
	for i, r := range c.rules {
		if r.Fires(x) {
			return true, i
		}
	}
	return false, -1
}

// EvalMap evaluates the (uncompiled) rule against a feature map; features
// absent from the map fail the rule with an error, preserving the fail-fast
// contract of Compile for ad-hoc evaluation.
func (r Rule) EvalMap(fv map[string]float64) (bool, error) {
	if len(r.Predicates) == 0 {
		return false, nil
	}
	for _, p := range r.Predicates {
		v, ok := fv[p.Feature]
		if !ok {
			return false, fmt.Errorf("rules: rule %q: feature %q missing from vector", r.Name, p.Feature)
		}
		if !p.Op.Apply(v, p.Value) {
			return false, nil
		}
	}
	return true, nil
}
