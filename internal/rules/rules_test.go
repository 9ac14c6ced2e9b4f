package rules

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpApply(t *testing.T) {
	cases := []struct {
		op   Op
		v, w float64
		want bool
	}{
		{LE, 1, 1, true}, {LE, 1.1, 1, false},
		{LT, 0.9, 1, true}, {LT, 1, 1, false},
		{GE, 1, 1, true}, {GE, 0.9, 1, false},
		{GT, 1.1, 1, true}, {GT, 1, 1, false},
		{EQ, 1, 1, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 1, 1, false},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.v, c.w); got != c.want {
			t.Errorf("%v.Apply(%v,%v) = %v", c.op, c.v, c.w, got)
		}
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{LE: "<=", LT: "<", GE: ">=", GT: ">", EQ: "==", NE: "!="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestParseSimple(t *testing.T) {
	r, err := Parse("b1", "jaccard_3gram_name <= 0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Predicates) != 1 {
		t.Fatalf("predicates = %v", r.Predicates)
	}
	p := r.Predicates[0]
	if p.Feature != "jaccard_3gram_name" || p.Op != LE || p.Value != 0.3 {
		t.Errorf("predicate = %+v", p)
	}
}

func TestParseConjunction(t *testing.T) {
	r, err := Parse("b2", "isbn_exact <= 0.5 AND pages_lev < 0.5 and year_exact == 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Predicates) != 3 {
		t.Fatalf("predicates = %v", r.Predicates)
	}
	if r.Predicates[2].Op != EQ || r.Predicates[2].Value != 0 {
		t.Errorf("third predicate = %+v", r.Predicates[2])
	}
}

func TestParseNegativeAndScientific(t *testing.T) {
	r, err := Parse("n", "score > -1.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Predicates[0].Value != -0.015 {
		t.Errorf("value = %v", r.Predicates[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"feature",
		"feature <=",
		"feature <= abc",
		"<= 0.5",
		"a <= 0.5 b <= 0.3",
		"a = 0.5",
		"a ? 0.5",
		"a <= 0.5 AND",
	}
	for _, src := range bad {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseSet(t *testing.T) {
	src := `
# blocking rules extracted from tree 0
isbn_exact <= 0.5
isbn_exact > 0.5 AND pages_lev <= 0.5

`
	rs, err := ParseSet("block", src)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("rules = %d", rs.Len())
	}
	if !strings.HasPrefix(rs.Rules[0].Name, "block#") {
		t.Errorf("rule name = %q", rs.Rules[0].Name)
	}
}

func TestParseSetError(t *testing.T) {
	if _, err := ParseSet("s", "good <= 1\nbad !! 2"); err == nil {
		t.Error("want parse error surfaced from set")
	}
}

func TestRoundTripString(t *testing.T) {
	r := MustParse("rt", "a <= 0.5 AND b > 0.25")
	again, err := Parse("rt", r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if len(again.Predicates) != 2 || again.Predicates[1].Value != 0.25 {
		t.Errorf("round trip mangled rule: %v", again)
	}
}

func TestCompileAndFire(t *testing.T) {
	names := []string{"f_a", "f_b", "f_c"}
	r := MustParse("r", "f_a <= 0.5 AND f_c > 0.9")
	c, err := Compile(r, names)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Fires([]float64{0.4, 0.0, 0.95}) {
		t.Error("rule should fire")
	}
	if c.Fires([]float64{0.6, 0.0, 0.95}) {
		t.Error("first predicate violated; rule must not fire")
	}
	if c.Fires([]float64{0.4, 0.0, 0.5}) {
		t.Error("second predicate violated; rule must not fire")
	}
}

func TestCompileUnknownFeature(t *testing.T) {
	r := MustParse("r", "missing <= 0.5")
	if _, err := Compile(r, []string{"present"}); err == nil {
		t.Fatal("want unknown-feature error")
	}
}

func TestEmptyRuleNeverFires(t *testing.T) {
	c, err := Compile(Rule{Name: "empty"}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fires([]float64{0}) {
		t.Error("empty rule fired")
	}
	ok, err := Rule{}.EvalMap(map[string]float64{})
	if err != nil || ok {
		t.Error("empty rule EvalMap should be false, nil")
	}
}

func TestCompileSetAnyFires(t *testing.T) {
	rs := RuleSet{}
	rs.Add(MustParse("r0", "a <= 0.1"))
	rs.Add(MustParse("r1", "b <= 0.1"))
	c, err := CompileSet(rs, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.rules) != 2 {
		t.Fatalf("len = %d", len(c.rules))
	}
	fired, idx := c.AnyFires([]float64{0.5, 0.05})
	if !fired || idx != 1 {
		t.Errorf("AnyFires = %v, %d; want true, 1", fired, idx)
	}
	fired, idx = c.AnyFires([]float64{0.5, 0.5})
	if fired || idx != -1 {
		t.Errorf("AnyFires = %v, %d; want false, -1", fired, idx)
	}
	rs.Add(MustParse("r2", "nope <= 1"))
	if _, err := CompileSet(rs, []string{"a", "b"}); err == nil {
		t.Error("want compile error for unknown feature in set")
	}
}

func TestEvalMap(t *testing.T) {
	r := MustParse("r", "x > 0.5 AND y <= 0.2")
	ok, err := r.EvalMap(map[string]float64{"x": 0.9, "y": 0.1})
	if err != nil || !ok {
		t.Errorf("EvalMap = %v, %v", ok, err)
	}
	ok, err = r.EvalMap(map[string]float64{"x": 0.9, "y": 0.9})
	if err != nil || ok {
		t.Errorf("EvalMap = %v, %v", ok, err)
	}
	if _, err := r.EvalMap(map[string]float64{"x": 0.9}); err == nil {
		t.Error("want missing-feature error")
	}
}

// Property: compiled evaluation agrees with map evaluation.
func TestCompiledMatchesMapProperty(t *testing.T) {
	names := []string{"a", "b"}
	r := MustParse("p", "a <= 0.5 AND b > 0.3")
	c, err := Compile(r, names)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		viaSlice := c.Fires([]float64{a, b})
		viaMap, err := r.EvalMap(map[string]float64{"a": a, "b": b})
		return err == nil && viaSlice == viaMap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
