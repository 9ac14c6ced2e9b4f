package block

import (
	"fmt"

	"repro/internal/feature"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/table"
)

// RuleBlocker runs a seed blocker, then drops every candidate pair on which
// a blocking rule fires. Each rule is a conjunction describing a
// provably-non-matching region of feature space (e.g. "isbn_exact <= 0.5"),
// the exact semantics of the rules Falcon extracts from random-forest
// branches (Figure 4).
//
// The rules refine a candidate set rather than generate one, so the seed
// is a cheap recall-oriented blocker (typically an overlap blocker with
// MinOverlap 1). Pairs whose sides share no tokens at all score zero on
// every similarity feature, which fires any useful blocking rule anyway,
// so the composition loses essentially nothing while avoiding the cross
// product.
type RuleBlocker struct {
	Seed     Blocker
	Rules    rules.RuleSet
	Features *feature.Set
	// Workers parallelizes scoring the seed's pairs; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives the rule stage's timings and considered/kept pair
	// counters and is passed through to feature extraction (the seed
	// blocker carries its own recorder); nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b RuleBlocker) Name() string {
	return fmt.Sprintf("rule_blocker(%s,%d rules)", b.Seed.Name(), b.Rules.Len())
}

// Pairs implements Blocker: the seed's pairs on which no rule fires, in the
// seed's order. A pair is scored on only the features the rules reference:
// the seed candidate set can be enormous, and the full battery for pairs
// the rules are about to drop would be most of the blocking stage's time.
func (b RuleBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	return frame{b.Name(), b.Workers, b.Metrics}.run(lt, rt, func() ([]rows, int, error) {
		sub, err := b.Features.Subset(referencedFeatures(b.Rules)...)
		if err != nil {
			return nil, 0, fmt.Errorf("block: rule blocker: %w", err)
		}
		compiled, err := rules.CompileSet(b.Rules, sub.Names())
		if err != nil {
			return nil, 0, fmt.Errorf("block: rule blocker: %w", err)
		}
		cand, err := b.Seed.Pairs(lt, rt)
		if err != nil {
			return nil, 0, err
		}
		kept, err := feature.Select(sub, cand, b.Workers, b.Metrics, func(x []float64, fill func()) bool {
			fill()
			fired, _ := compiled.AnyFires(x)
			return !fired
		})
		if err != nil {
			return nil, 0, err
		}
		out := cand.Select(kept)
		return []rows{{out.L, out.R}}, cand.Len(), nil
	})
}

// Block implements Blocker.
func (b RuleBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

// referencedFeatures returns the distinct feature names the rule set's
// predicates mention, in first-appearance order.
func referencedFeatures(rs rules.RuleSet) []string {
	seen := make(map[string]bool)
	out := make([]string, 0, len(rs.Rules))
	for _, r := range rs.Rules {
		for _, p := range r.Predicates {
			if !seen[p.Feature] {
				seen[p.Feature] = true
				out = append(out, p.Feature)
			}
		}
	}
	return out
}
