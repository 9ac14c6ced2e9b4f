package falcon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/table"
)

// TestSmurfPoolGolden pins Smurf's learning pool — pair ids and feature
// rows — on the three §5.3 comparison tasks (experiments.smurfTasks at seed
// 1, SampleSize 1000). Digest (a) leaves out the Monge-Elkan column and
// holds the rest to the values recorded before Smurf ran on Run's steps 1
// and 2; digest (b) covers whole rows, where monge_elkan_jw now scores the
// token bag where Smurf's former battery scored the token set.
func TestSmurfPoolGolden(t *testing.T) {
	specs := []datagen.Spec{
		{Name: "company_names", Domain: datagen.VendorDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: 42},
		{Name: "person_names", Domain: datagen.PersonDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: 43},
		{Name: "book_titles", Domain: datagen.BookDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: 44},
	}
	golden := map[string][2]string{
		"company_names": {"9818415ea1c0d5c8", "dc966d1898d90154"},
		"person_names":  {"a8c647f97a78ec61", "9fbccedfca2146aa"},
		"book_titles":   {"4243b0abedca0b71", "182b8725cd7683a0"},
	}
	for _, spec := range specs {
		task, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb, fs, err := smurfInput(task.A, task.B)
		if err != nil {
			t.Fatal(err)
		}
		pool, _, _, err := learnOnSample(sa, sb, fs, label.NewOracle(task.Gold), 1000, active.Config{Seed: 2}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if pool.Len() != 1000 {
			t.Fatalf("%s: pool has %d pairs, want 1000", spec.Name, pool.Len())
		}
		me := len(pool.Names) - 1
		if pool.Names[me] != "monge_elkan_jw_"+tupleColumn {
			t.Fatalf("%s: last column %q", spec.Name, pool.Names[me])
		}
		digest := func(skip int) string {
			var sb strings.Builder
			for i, x := range pool.X {
				lid, rid := pool.Pairs.IDs(i)
				fmt.Fprintf(&sb, "%s,%s", lid, rid)
				for j, v := range x {
					if j != skip {
						fmt.Fprintf(&sb, ",%016x", math.Float64bits(v))
					}
				}
				sb.WriteByte('\n')
			}
			sum := sha256.Sum256([]byte(sb.String()))
			return hex.EncodeToString(sum[:8])
		}
		if got, want := digest(me), golden[spec.Name][0]; got != want {
			t.Errorf("%s: pool digest without Monge-Elkan %s, recorded %s", spec.Name, got, want)
		}
		if got, want := digest(-1), golden[spec.Name][1]; got != want {
			t.Errorf("%s: pool digest %s, recorded %s", spec.Name, got, want)
		}
	}
}

// stringTask is a company-name task reduced to the name and city columns.
func stringTask(t *testing.T, n int, seed int64) (a, b *table.Table, gold *label.Gold) {
	t.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "strings", Domain: datagen.VendorDomain(),
		SizeA: n, SizeB: n, MatchFraction: 0.5, Typo: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	project := func(x *table.Table) *table.Table {
		p, err := x.Project("id", "name", "city")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return project(task.A), project(task.B), task.Gold
}

func TestSmurfAccuracy(t *testing.T) {
	a, b, gold := stringTask(t, 300, 21)
	res, err := Smurf(a, b, label.NewOracle(gold), table.NewCatalog(), Config{SampleSize: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, r := scoreMatches(res.Matches, gold)
	if p < 0.85 || r < 0.85 {
		t.Errorf("precision %.3f recall %.3f, want both >= 0.85", p, r)
	}
	if res.BlockingQuestions == 0 || res.TotalQuestions() != res.BlockingQuestions || res.Matcher == nil {
		t.Errorf("questions %d of %d, matcher %v", res.BlockingQuestions, res.TotalQuestions(), res.Matcher)
	}
}

func TestSmurfNeedsFewerLabelsThanFalcon(t *testing.T) {
	// The headline Smurf claim: same accuracy, 43–76% fewer labels. Run
	// both systems on the same workload and compare question counts.
	task, err := datagen.Generate(datagen.Spec{
		Name: "companies", Domain: datagen.VendorDomain(),
		SizeA: 300, SizeB: 300, MatchFraction: 0.5, Typo: 0.25, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SampleSize: 800, Seed: 2}

	// Falcon on the full tuples.
	falconOracle := label.NewOracle(task.Gold)
	if _, err := Run(task.A, task.B, falconOracle, table.NewCatalog(), cfg); err != nil {
		t.Fatal(err)
	}
	falconQ := falconOracle.Stats().Questions

	// Smurf on name and city.
	a, b, gold := stringTask(t, 300, 22)
	smurfOracle := label.NewOracle(gold)
	sres, err := Smurf(a, b, smurfOracle, table.NewCatalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	smurfQ := smurfOracle.Stats().Questions

	if smurfQ >= falconQ {
		t.Errorf("smurf asked %d questions, falcon %d; smurf must need fewer", smurfQ, falconQ)
	}
	reduction := 1 - float64(smurfQ)/float64(falconQ)
	t.Logf("labeling reduction = %.0f%% (falcon %d, smurf %d)", 100*reduction, falconQ, smurfQ)
	if reduction < 0.2 {
		t.Errorf("labeling reduction %.2f below any useful margin", reduction)
	}

	// And accuracy must not collapse.
	sp, sr := scoreMatches(sres.Matches, gold)
	if sp < 0.8 || sr < 0.8 {
		t.Errorf("smurf accuracy P=%.3f R=%.3f too low", sp, sr)
	}
}

func TestSmurfEmptyInput(t *testing.T) {
	a, b, _ := stringTask(t, 20, 1)
	if _, err := Smurf(a.Head(0), b, label.NewOracle(label.NewGold(nil)), table.NewCatalog(), Config{}); err == nil {
		t.Fatal("want empty-input error")
	}
}

func TestSmurfBudget(t *testing.T) {
	a, b, gold := stringTask(t, 200, 23)
	budget := label.NewBudgeted(label.NewOracle(gold), 80)
	_, err := Smurf(a, b, budget, table.NewCatalog(), Config{SampleSize: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q := budget.Stats().Questions; q > 80 {
		t.Errorf("asked %d questions, budget 80", q)
	}
}

func TestSmurfDeterministic(t *testing.T) {
	a, b, gold := stringTask(t, 150, 24)
	run := func() *Result {
		res, err := Smurf(a, b, label.NewOracle(gold), table.NewCatalog(), Config{SampleSize: 400, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Matches.Len() != r2.Matches.Len() || r1.BlockingQuestions != r2.BlockingQuestions {
		t.Error("same seed produced different runs")
	}
}

// TestSmurfFeatureVectorShape checks the battery smurfInput builds: one
// score per Smurf kind, each in [0, 1], and 1 everywhere on identical tuples.
func TestSmurfFeatureVectorShape(t *testing.T) {
	side := func(name string, rows ...string) *table.Table {
		x := table.New(name, table.StringSchema("id", "name"))
		for i, s := range rows {
			x.MustAppend(table.String(fmt.Sprint(i)), table.String(s))
		}
		if err := x.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		return x
	}
	sa, sb, fs, err := smurfInput(side("a", "Acme Corp", "same"), side("b", "acme corporation", "same"))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != len(smurfKinds) {
		t.Fatalf("battery width %d != %d kinds", fs.Len(), len(smurfKinds))
	}
	names := fs.Names()
	for i, v := range fs.Vector(sa, sb, sa.Row(0), sb.Row(0)) {
		if v < 0 || v > 1 {
			t.Errorf("feature %s = %v out of range", names[i], v)
		}
	}
	for i, v := range fs.Vector(sa, sb, sa.Row(1), sb.Row(1)) {
		if v != 1 {
			t.Errorf("identical tuples: feature %s = %v", names[i], v)
		}
	}
}
