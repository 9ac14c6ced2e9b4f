package datagen

import (
	"strings"
	"testing"
)

func TestGenerateBasics(t *testing.T) {
	task, err := Generate(Spec{Name: "t", Domain: ProductDomain(), SizeA: 200, SizeB: 150, MatchFraction: 0.4, Typo: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if task.A.Len() != 200 || task.B.Len() != 150 {
		t.Fatalf("sizes = %d/%d", task.A.Len(), task.B.Len())
	}
	if task.A.Key() != "id" || task.B.Key() != "id" {
		t.Fatal("keys not declared")
	}
	if got := task.Gold.Len(); got != 60 {
		t.Errorf("gold matches = %d, want 60 (0.4 × 150)", got)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{Domain: ProductDomain()}); err == nil {
		t.Error("want size error")
	}
	if _, err := Generate(Spec{SizeA: 1, SizeB: 1}); err == nil {
		t.Error("want empty-domain error")
	}
}

func TestGoldPairsReferToRealRows(t *testing.T) {
	task, err := Generate(Spec{Name: "t", Domain: PersonDomain(), SizeA: 100, SizeB: 100, Typo: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	aIdx, err := task.A.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	bIdx, err := task.B.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range task.Gold.Pairs() {
		if _, ok := aIdx[p[0]]; !ok {
			t.Fatalf("gold left id %q not in A", p[0])
		}
		if _, ok := bIdx[p[1]]; !ok {
			t.Fatalf("gold right id %q not in B", p[1])
		}
	}
}

func TestMatchedPairsAreSimilar(t *testing.T) {
	task, err := Generate(Spec{Name: "t", Domain: BookDomain(), SizeA: 100, SizeB: 100, MatchFraction: 0.5, Typo: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aIdx, err := task.A.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	bIdx, err := task.B.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Gold pairs must share the ISBN most of the time (codes rarely
	// corrupted), while random pairs almost never do.
	shared := 0
	for _, p := range task.Gold.Pairs() {
		ai, bi := aIdx[p[0]], bIdx[p[1]]
		av := task.A.Get(ai, "isbn")
		bv := task.B.Get(bi, "isbn")
		if !av.IsNull() && av.AsString() == bv.AsString() {
			shared++
		}
	}
	if frac := float64(shared) / float64(task.Gold.Len()); frac < 0.7 {
		t.Errorf("only %.2f of gold pairs share an ISBN", frac)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	spec := Spec{Name: "t", Domain: VendorDomain(), SizeA: 50, SizeB: 50, Typo: 0.3, Seed: 7}
	t1, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < t1.B.Len(); i++ {
		for _, c := range t1.B.Schema().Names() {
			if t1.B.Get(i, c).AsString() != t2.B.Get(i, c).AsString() {
				t.Fatal("same seed generated different data")
			}
		}
	}
}

func TestMissingKnob(t *testing.T) {
	task, err := Generate(Spec{Name: "t", Domain: VehicleDomain(), SizeA: 300, SizeB: 300, Missing: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	total := 0
	for i := 0; i < task.B.Len(); i++ {
		for _, c := range task.B.Schema().Names() {
			if c == "id" {
				continue
			}
			total++
			if task.B.Get(i, c).IsNull() {
				nulls++
			}
		}
	}
	frac := float64(nulls) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("null fraction %.2f, want ~0.5", frac)
	}
	// A is never corrupted: no nulls.
	for i := 0; i < task.A.Len(); i++ {
		for _, c := range task.A.Schema().Names() {
			if task.A.Get(i, c).IsNull() {
				t.Fatal("table A should be clean")
			}
		}
	}
}

func TestGarbageSegment(t *testing.T) {
	task, err := Generate(Spec{Name: "t", Domain: VendorDomain(), SizeA: 400, SizeB: 400, GarbageFraction: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	garbage := 0
	for i := 0; i < task.B.Len(); i++ {
		addr := task.B.Get(i, "address").AsString()
		if strings.Contains(addr, "centro") || addr == "main street 1" {
			garbage++
		}
	}
	frac := float64(garbage) / float64(task.B.Len())
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("garbage fraction %.2f, want ~0.25", frac)
	}
}

func TestEntityGeneratorsArePure(t *testing.T) {
	for _, d := range []Domain{PersonDomain(), ProductDomain(), VehicleDomain(), VendorDomain(),
		BookDomain(), RestaurantDomain(), RanchDomain(), CitationDomain(), MovieDomain()} {
		for _, f := range d.Fields {
			if f.Gen(42) != f.Gen(42) {
				t.Errorf("domain %s field %s generator is not pure", d.Name, f.Name)
			}
			if f.Gen(1) == "" {
				t.Errorf("domain %s field %s generates empty values", d.Name, f.Name)
			}
		}
	}
}

func TestTable2Registry(t *testing.T) {
	tasks := Table2Tasks(1)
	if len(tasks) != 13 {
		t.Fatalf("table 2 tasks = %d, want 13", len(tasks))
	}
	names := map[string]bool{}
	for _, ts := range tasks {
		if names[ts.Spec.Name] {
			t.Errorf("duplicate task %q", ts.Spec.Name)
		}
		names[ts.Spec.Name] = true
		if ts.QuestionCap < 160 || ts.QuestionCap > 1200 {
			t.Errorf("%s: question cap %d outside the paper's 160–1200", ts.Spec.Name, ts.QuestionCap)
		}
	}
	for _, want := range []string{"vehicles", "addresses", "vendors", "vendors_no_brazil"} {
		if !names[want] {
			t.Errorf("missing paper task %q", want)
		}
	}
	// vendors and vendors_no_brazil differ only in the garbage segment.
	var v, vnb *TaskSpec
	for i := range tasks {
		if tasks[i].Spec.Name == "vendors" {
			v = &tasks[i]
		}
		if tasks[i].Spec.Name == "vendors_no_brazil" {
			vnb = &tasks[i]
		}
	}
	if v.Spec.GarbageFraction == 0 || vnb.Spec.GarbageFraction != 0 {
		t.Error("vendors/no-brazil garbage knobs wrong")
	}
	if v.Spec.Seed != vnb.Spec.Seed {
		t.Error("vendors variants must share a seed for comparability")
	}
}

func TestTable1Registry(t *testing.T) {
	deps := Table1Deployments(1)
	if len(deps) != 8 {
		t.Fatalf("table 1 deployments = %d, want 8", len(deps))
	}
	inProd := 0
	for _, d := range deps {
		if d.InProduction {
			inProd++
		}
	}
	if inProd != 6 {
		t.Errorf("in production = %d, want 6 of 8 (paper)", inProd)
	}
}

func TestAllTable2TasksGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("generation of all tasks is slow in -short mode")
	}
	for _, ts := range Table2Tasks(1) {
		task, err := Generate(ts.Spec)
		if err != nil {
			t.Fatalf("%s: %v", ts.Spec.Name, err)
		}
		if task.Gold.Len() == 0 {
			t.Errorf("%s: no gold matches", ts.Spec.Name)
		}
	}
}
