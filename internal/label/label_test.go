package label

import (
	"testing"
	"time"
)

func gold() *Gold {
	return NewGold([][2]string{{"a1", "b1"}, {"a3", "b2"}})
}

func TestGold(t *testing.T) {
	g := gold()
	if !g.IsMatch("a1", "b1") || g.IsMatch("a1", "b2") {
		t.Error("gold lookup broken")
	}
	if g.Len() != 2 {
		t.Errorf("len = %d", g.Len())
	}
	g.Add("a9", "b9")
	if !g.IsMatch("a9", "b9") || g.Len() != 3 {
		t.Error("add broken")
	}
	if len(g.Pairs()) != 3 {
		t.Errorf("pairs = %v", g.Pairs())
	}
}

func TestOracle(t *testing.T) {
	o := NewOracle(gold())
	if !o.Label("a1", "b1") || o.Label("a2", "b1") {
		t.Error("oracle answers wrong")
	}
	st := o.Stats()
	if st.Questions != 2 {
		t.Errorf("questions = %d", st.Questions)
	}
	if st.Elapsed != 10*time.Second {
		t.Errorf("elapsed = %v, want 10s at default rate", st.Elapsed)
	}
	if st.CostUSD != 0 {
		t.Errorf("oracle cost = %v, want 0 (single user)", st.CostUSD)
	}
	o2 := NewOracle(gold())
	o2.PerQuestion = time.Minute
	o2.Label("a1", "b1")
	if o2.Stats().Elapsed != time.Minute {
		t.Error("custom per-question time ignored")
	}
}

func TestNoisyUserZeroError(t *testing.T) {
	u := NewNoisyUser(gold(), 0, 1)
	for i := 0; i < 50; i++ {
		if !u.Label("a1", "b1") {
			t.Fatal("zero-error user flipped an answer")
		}
	}
}

func TestNoisyUserFlips(t *testing.T) {
	u := NewNoisyUser(gold(), 0.3, 42)
	flips := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if !u.Label("a1", "b1") {
			flips++
		}
	}
	rate := float64(flips) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("observed flip rate %.3f, want ~0.3", rate)
	}
	if u.Stats().Questions != n {
		t.Errorf("questions = %d", u.Stats().Questions)
	}
}

func TestNoisyUserDeterministic(t *testing.T) {
	u1 := NewNoisyUser(gold(), 0.5, 7)
	u2 := NewNoisyUser(gold(), 0.5, 7)
	for i := 0; i < 100; i++ {
		if u1.Label("a1", "b1") != u2.Label("a1", "b1") {
			t.Fatal("same seed diverged")
		}
	}
}

func TestCrowdMajorityBeatsWorkerError(t *testing.T) {
	// With 10% worker error and 3 workers, majority vote error is
	// ~2.8%; measure it.
	c := NewCrowd(gold(), 1)
	wrong := 0
	const n = 3000
	for i := 0; i < n; i++ {
		if !c.Label("a1", "b1") {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate > 0.06 {
		t.Errorf("crowd error rate %.3f, want < 0.06 (workers at 0.10)", rate)
	}
}

func TestCrowdCostModel(t *testing.T) {
	c := NewCrowd(gold(), 2)
	const n = 1200 // CloudMatcher's question cap
	for i := 0; i < n; i++ {
		c.Label("a1", "b1")
	}
	st := c.Stats()
	if st.Questions != n {
		t.Errorf("questions = %d", st.Questions)
	}
	// 1200 questions × 3 workers × $0.02 = $72, matching Table 2's "$72".
	if st.CostUSD < 71.99 || st.CostUSD > 72.01 {
		t.Errorf("cost = $%.2f, want $72", st.CostUSD)
	}
	// 1200 × 90 s = 30 h, inside Table 2's 22–36 h crowd window.
	if st.Elapsed < 22*time.Hour || st.Elapsed > 36*time.Hour {
		t.Errorf("elapsed = %v, want within 22h–36h", st.Elapsed)
	}
}

func TestBudgeted(t *testing.T) {
	o := NewOracle(gold())
	b := NewBudgeted(o, 3)
	for i := 0; i < 3; i++ {
		b.Label("a1", "b1")
	}
	if b.Remaining() != 0 {
		t.Errorf("remaining = %d", b.Remaining())
	}
	if b.Exhausted() != nil {
		t.Error("budget not yet exceeded; Exhausted should be nil")
	}
	if b.Label("a1", "b1") {
		t.Error("over-budget Label must answer false")
	}
	if b.Exhausted() == nil {
		t.Error("want ErrBudgetExhausted after refusal")
	}
	if o.Stats().Questions != 3 {
		t.Errorf("inner labeler saw %d questions, want 3", o.Stats().Questions)
	}
	if b.Stats().Questions != 3 {
		t.Errorf("budgeted stats = %d", b.Stats().Questions)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Questions: 10, CostUSD: 1.5, Elapsed: 2 * time.Hour}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}
