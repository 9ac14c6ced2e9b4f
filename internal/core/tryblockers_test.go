package core

import (
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/table"
)

// recording runs its blocker and remembers every table it returned.
type recording struct {
	block.Blocker
	out *[]*table.Table
}

func (r recording) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	p, err := r.Blocker.Block(lt, rt, cat)
	if err == nil {
		*r.out = append(*r.out, p)
	}
	return p, err
}

// dangling registers a pair table naming a left id its base table lacks,
// which the blocking debugger refuses with the catalog's FK error.
type dangling struct{ out **table.Table }

func (dangling) Name() string { return "dangling" }

func (d dangling) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	p, err := table.NewPairTable("dangling", lt, rt, cat)
	if err != nil {
		return nil, err
	}
	table.AppendPair(p, "no-such-id", rt.Row(0)[rt.Schema().Lookup(rt.Key())].AsString())
	*d.out = p
	return p, nil
}

// sameRows fails unless the two pair tables have the same name and rows.
func sameRows(t *testing.T, got, want *table.Table) {
	t.Helper()
	if got.Name() != want.Name() || got.Len() != want.Len() {
		t.Fatalf("got %q with %d rows, want %q with %d", got.Name(), got.Len(), want.Name(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if g[j].AsString() != w[j].AsString() {
				t.Fatalf("row %d col %d: %q, want %q", i, j, g[j].AsString(), w[j].AsString())
			}
		}
	}
}

func blockSeconds(reg *obs.Registry, blk block.Blocker) uint64 {
	return reg.TimerCount(obs.BlockSeconds, obs.L("blocker", blk.Name()))
}

// TestTryBlockersThenBlockReuses: TryBlockers' reports are what one
// DebugBlocker call per blocker gives; afterwards the catalog holds only
// the winner's set, and Block on the winner returns exactly the pairs a
// fresh run gives without running the blocker again.
func TestTryBlockersThenBlockReuses(t *testing.T) {
	task := personTask(t, 400, 36)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DownSample(300, 300); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var made []*table.Table
	blockers := []block.Blocker{
		recording{block.AttrEquivalenceBlocker{Attr: "state", Metrics: reg}, &made},
		recording{block.WholeTupleOverlapBlocker{MinOverlap: 2, Metrics: reg}, &made},
		recording{block.OverlapBlocker{Attr: "name", Metrics: reg}, &made},
	}
	oracle := label.NewOracle(task.Gold)
	best, reports, err := s.TryBlockers(blockers, oracle, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blockers {
		cat := table.NewCatalog()
		cand, err := blk.Block(s.A, s.B, cat)
		if err != nil {
			t.Fatal(err)
		}
		missed, err := block.DebugBlocker(cand, cat, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := BlockerReport{Name: blk.Name(), Candidates: cand.Len()}
		for _, m := range missed {
			if oracle.Label(m.LID, m.RID) {
				want.LikelyMissed++
			}
		}
		if reports[i] != want {
			t.Errorf("report %d = %+v, want %+v", i, reports[i], want)
		}
	}
	made = made[:len(blockers)]
	for i, p := range made {
		if _, ok := s.Catalog.PairMeta(p); ok != (i == best) {
			t.Errorf("after TryBlockers, %s's set registered = %v (best %d)", blockers[i].Name(), ok, best)
		}
	}

	before := blockSeconds(reg, blockers[best])
	cand, err := s.Block(blockers[best])
	if err != nil {
		t.Fatal(err)
	}
	if n := blockSeconds(reg, blockers[best]); n != before {
		t.Errorf("Block ran the chosen blocker again (%d em_block_seconds observations, had %d)", n, before)
	}
	fresh, err := blockers[best].Block(s.A, s.B, table.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, cand, fresh)
	if cand != made[best] || s.Candidates != cand {
		t.Error("Block did not hand over the set TryBlockers kept")
	}
}

// TestBlockRerunsAfterTablesChange: once DownSample, a reassigned A or a
// row appended to B has changed the tables the kept set is over, Block
// runs the blocker again and the stale set leaves the catalog.
func TestBlockRerunsAfterTablesChange(t *testing.T) {
	task := personTask(t, 300, 37)
	oracle := label.NewOracle(task.Gold)
	for _, change := range []struct {
		name string
		fn   func(s *Session) error
	}{
		{"downsample", func(s *Session) error { return s.DownSample(200, 200) }},
		{"reassign A", func(s *Session) error { s.A = s.A.Clone(); return nil }},
		{"append to B", func(s *Session) error {
			row := append(table.Row(nil), s.B.Row(0)...)
			row[s.B.Schema().Lookup(s.B.Key())] = table.String("appended")
			return s.B.Append(row)
		}},
	} {
		s, err := NewSession(task.A.Clone(), task.B.Clone(), 1)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		blk := block.OverlapBlocker{Attr: "name", Metrics: reg}
		if _, _, err := s.TryBlockers([]block.Blocker{blk}, oracle, 10); err != nil {
			t.Fatal(err)
		}
		kept := s.kept
		if err := change.fn(s); err != nil {
			t.Fatal(err)
		}
		cand, err := s.Block(blk)
		if err != nil {
			t.Fatal(err)
		}
		if n := blockSeconds(reg, blk); n != 2 {
			t.Errorf("%s: %d em_block_seconds observations, want 2", change.name, n)
		}
		if meta, _ := s.Catalog.PairMeta(cand); meta.LTable != s.A || meta.RTable != s.B {
			t.Errorf("%s: Block's set is not over the session's tables", change.name)
		}
		if _, ok := s.Catalog.PairMeta(kept); ok {
			t.Errorf("%s: the stale kept set is still registered", change.name)
		}
	}
}

// TestBlockNonComparableBlocker: a blocker whose value cannot be compared
// with == — a func field, or a comparable type holding one in an
// interface field — is run again rather than compared.
func TestBlockNonComparableBlocker(t *testing.T) {
	task := personTask(t, 200, 38)
	oracle := label.NewOracle(task.Gold)
	reg := obs.NewRegistry()
	state := task.A.Schema().Lookup("state")
	keep := block.BlackBoxBlocker{Label: "same_state", Metrics: reg, Keep: func(l, r table.Row) bool { return l[state].AsString() == r[state].AsString() }}
	var made []*table.Table
	for _, blk := range []block.Blocker{keep, recording{keep, &made}} {
		s, err := NewSession(task.A, task.B, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.TryBlockers([]block.Blocker{blk}, oracle, 10); err != nil {
			t.Fatal(err)
		}
		before := blockSeconds(reg, keep)
		if _, err := s.Block(blk); err != nil {
			t.Fatal(err)
		}
		if n := blockSeconds(reg, keep); n != before+1 {
			t.Errorf("%T: Block ran the blocker %d times, want 1", blk, n-before)
		}
	}
}

// TestTryBlockersDropsRefusedSet: a set the debugger refuses (here for an
// id its base table lacks) leaves the catalog, and the error is that
// blocker's report.
func TestTryBlockersDropsRefusedSet(t *testing.T) {
	task := personTask(t, 200, 39)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bad *table.Table
	blockers := []block.Blocker{dangling{&bad}, block.OverlapBlocker{Attr: "name"}}
	best, reports, err := s.TryBlockers(blockers, label.NewOracle(task.Gold), 10)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 || reports[0].Err == nil || !strings.Contains(reports[0].Err.Error(), "FK constraint violated") {
		t.Fatalf("best %d, reports %+v: want the dangling set refused with the FK error", best, reports)
	}
	if _, ok := s.Catalog.PairMeta(bad); ok {
		t.Error("the refused set is still registered")
	}
}
