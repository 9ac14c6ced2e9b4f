package block

import (
	"fmt"

	"repro/internal/feature"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/table"
)

// RuleFilter drops candidate pairs on which any blocking rule fires. Each
// rule is a conjunction describing a provably-non-matching region of
// feature space (e.g. "isbn_exact <= 0.5"), the exact semantics of the
// rules Falcon extracts from random-forest branches (Figure 4).
//
// A RuleFilter refines an existing candidate set rather than generating
// one: pair it with a cheap recall-oriented blocker (typically
// OverlapBlocker with MinOverlap 1) for end-to-end blocking. Pairs whose
// sides share no tokens at all score zero on every similarity feature,
// which fires any useful blocking rule anyway, so the composition loses
// essentially nothing while avoiding the cross product.
type RuleFilter struct {
	Rules    rules.RuleSet
	Features *feature.Set
	// Workers parallelizes feature extraction and rule evaluation;
	// 0 means GOMAXPROCS.
	Workers int
	// Metrics receives filter timings and considered/kept pair counters,
	// and is passed through to feature extraction; nil means off.
	Metrics obs.Recorder
}

// Filter returns the pairs of cand on which no rule fires, in cand's
// order. It also reports how many pairs each rule dropped (aligned with
// Rules.Rules).
func (rf RuleFilter) Filter(cand *table.Pairs) (*table.Pairs, []int, error) {
	f := frame{"rule_filter", rf.Workers, rf.Metrics}
	rec := obs.Or(f.metrics)
	bl := obs.L("blocker", f.name)
	defer obs.StartTimer(rec, obs.BlockSeconds, bl)()
	// Score candidates on only the features the rules reference: the
	// seed candidate set can be enormous, and computing the full feature
	// battery for pairs the rules are about to drop wastes most of the
	// blocking stage's time.
	needed := referencedFeatures(rf.Rules)
	sub, err := rf.Features.Subset(needed...)
	if err != nil {
		return nil, nil, fmt.Errorf("block: rule filter: %w", err)
	}
	compiled, err := rules.CompileSet(rf.Rules, sub.Names())
	if err != nil {
		return nil, nil, fmt.Errorf("block: rule filter: %w", err)
	}
	x, err := feature.Vectors(sub, cand, feature.ExtractOptions{Workers: rf.Workers, Metrics: rf.Metrics})
	if err != nil {
		return nil, nil, err
	}
	// Evaluate the compiled rules over candidate chunks; each chunk
	// keeps local drop counters and a local survivor list, merged in
	// chunk order so the output matches the serial scan.
	type shardResult struct {
		kept    []int
		dropped []int
	}
	shards, err := probeShards(f, cand.Len(), func(lo, hi int) shardResult {
		res := shardResult{dropped: make([]int, rf.Rules.Len())}
		for i := lo; i < hi; i++ {
			if fired, idx := compiled.AnyFires(x[i]); fired {
				res.dropped[idx]++
			} else {
				res.kept = append(res.kept, i)
			}
		}
		return res
	})
	if err != nil {
		return nil, nil, err
	}
	dropped := make([]int, rf.Rules.Len())
	var kept []int
	for _, s := range shards {
		for ri, n := range s.dropped {
			dropped[ri] += n
		}
		kept = append(kept, s.kept...)
	}
	rec.Count(obs.BlockPairsConsidered, float64(cand.Len()), bl)
	rec.Count(obs.BlockPairsEmitted, float64(len(kept)), bl)
	return cand.Select(kept), dropped, nil
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

// RuleBlocker composes a seed blocker with a RuleFilter into a single
// Blocker: seed first, then drop pairs on which any rule fires.
type RuleBlocker struct {
	Seed     Blocker
	Rules    rules.RuleSet
	Features *feature.Set
	Workers  int
	// Metrics is forwarded to the rule filter stage (the seed blocker
	// carries its own recorder); nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b RuleBlocker) Name() string {
	return fmt.Sprintf("rule_blocker(%s,%d rules)", b.Seed.Name(), b.Rules.Len())
}

// Pairs implements Blocker.
func (b RuleBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	cand, err := b.Seed.Pairs(lt, rt)
	if err != nil {
		return nil, err
	}
	out, _, err := RuleFilter{Rules: b.Rules, Features: b.Features, Workers: b.Workers, Metrics: b.Metrics}.Filter(cand)
	return out, err
}

// Block implements Blocker.
func (b RuleBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}
