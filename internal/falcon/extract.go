// Package falcon implements the Falcon self-service EM workflow of the
// paper (Das et al., SIGMOD 2017; Figures 3 and 4 of the Magellan progress
// report). A lay user only labels tuple pairs as match/no-match; Falcon
//
//  1. takes a sample S of tuple pairs,
//  2. active-learns a random forest F on S,
//  3. extracts every root→"No"-leaf branch of every tree of F as a
//     candidate blocking rule,
//  4. keeps only the rules the labeler confirms precise,
//  5. executes the precise rules to block A × B into a candidate set C,
//  6. active-learns a second forest G on C and applies it to C to predict
//     matches.
//
// This package is the core of the CloudMatcher reproduction: package cloud
// exposes each of these steps as a service.
package falcon

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/rules"
)

// ExtractBlockingRules walks every tree of the forest and returns one rule
// per root→leaf branch ending in a "No" (non-match-majority) leaf, as in
// Figure 4 of the paper: the tree "name_match <= 0.5? → No" yields the
// blocking rule "name_match <= 0.5". Identical rules from different trees
// are deduplicated; rules are named falcon_rule_<i>.
func ExtractBlockingRules(f *ml.RandomForest, featureNames []string) (rules.RuleSet, error) {
	if len(f.Trees()) == 0 {
		return rules.RuleSet{}, fmt.Errorf("falcon: forest has no trees (not fitted?)")
	}
	var rs rules.RuleSet
	seen := make(map[string]bool)
	for _, t := range f.Trees() {
		branches, err := noBranches(t.Root(), featureNames, nil)
		if err != nil {
			return rules.RuleSet{}, err
		}
		for _, branch := range branches {
			r := rules.Rule{Name: fmt.Sprintf("falcon_rule_%d", rs.Len()), Predicates: branch}
			if key := r.String(); !seen[key] {
				seen[key] = true
				rs.Add(r)
			}
		}
	}
	return rs, nil
}

// noBranches enumerates the predicate paths from n to every "No" leaf,
// naming each split's feature from featureNames.
func noBranches(n *ml.TreeNode, featureNames []string, path []rules.Predicate) ([][]rules.Predicate, error) {
	if n == nil {
		return nil, nil
	}
	if n.Leaf {
		if n.Proba < 0.5 && len(path) > 0 {
			return [][]rules.Predicate{append([]rules.Predicate(nil), path...)}, nil
		}
		return nil, nil
	}
	if n.Feature < 0 || n.Feature >= len(featureNames) {
		return nil, fmt.Errorf("falcon: tree references feature %d, have %d features", n.Feature, len(featureNames))
	}
	feat := featureNames[n.Feature]
	left, err := noBranches(n.Left, featureNames, append(path, rules.Predicate{Feature: feat, Op: rules.LE, Value: n.Threshold}))
	if err != nil {
		return nil, err
	}
	right, err := noBranches(n.Right, featureNames, append(path, rules.Predicate{Feature: feat, Op: rules.GT, Value: n.Threshold}))
	return append(left, right...), err
}
