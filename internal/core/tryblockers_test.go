package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/table"
)

// recording runs its blocker and remembers every candidate set its Pairs
// returned.
type recording struct {
	block.Blocker
	out *[]*table.Pairs
}

func (r recording) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	p, err := r.Blocker.Pairs(lt, rt)
	if err == nil {
		*r.out = append(*r.out, p)
	}
	return p, err
}

// dangling's candidate set names a left row past the end of its table,
// which the blocking debugger refuses with an FK error.
type dangling struct{ out **table.Pairs }

func (dangling) Name() string { return "dangling" }

func (d dangling) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	*d.out = table.NewPairs(lt, rt, []int32{int32(lt.Len())}, []int32{0})
	return *d.out, nil
}

func (d dangling) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	p, err := d.Pairs(lt, rt)
	if err != nil {
		return nil, err
	}
	return p.Table(d.Name(), cat)
}

// sameRows fails unless the two candidate sets pair the same rows of the
// same tables.
func sameRows(t *testing.T, got, want *table.Pairs) {
	t.Helper()
	if got.LTable != want.LTable || got.RTable != want.RTable || !slices.Equal(got.L, want.L) || !slices.Equal(got.R, want.R) {
		t.Fatalf("got %d pairs, want %d, or other rows or tables", got.Len(), want.Len())
	}
}

func blockSeconds(reg *obs.Registry, blk block.Blocker) uint64 {
	return reg.TimerCount(obs.BlockSeconds, obs.L("blocker", blk.Name()))
}

// TestTryBlockersThenBlockReuses: TryBlockers' reports are what one
// DebugBlocker call per blocker gives; afterwards the session keeps only
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
	var made []*table.Pairs
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
	if len(made) != len(blockers) || s.kept != made[best] {
		t.Errorf("after TryBlockers, %d sets made and the winner's (best %d) kept = %v", len(made), best, s.kept == made[best])
	}

	before := blockSeconds(reg, blockers[best])
	cand, err := s.Block(blockers[best])
	if err != nil {
		t.Fatal(err)
	}
	if n := blockSeconds(reg, blockers[best]); n != before {
		t.Errorf("Block ran the chosen blocker again (%d em_block_seconds observations, had %d)", n, before)
	}
	fresh, err := blockers[best].Pairs(s.A, s.B)
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
// runs the blocker again over the session's tables instead of handing the
// stale set over.
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
		if cand.LTable != s.A || cand.RTable != s.B {
			t.Errorf("%s: Block's set is not over the session's tables", change.name)
		}
		if cand == kept || s.kept != nil {
			t.Errorf("%s: the stale kept set was handed over or is still kept", change.name)
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
	var made []*table.Pairs
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

// TestTryBlockersDropsRefusedSet: a set the debugger refuses (here for a
// row its base table lacks) is not kept, and the error is that blocker's
// report.
func TestTryBlockersDropsRefusedSet(t *testing.T) {
	task := personTask(t, 200, 39)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bad *table.Pairs
	blockers := []block.Blocker{dangling{&bad}, block.OverlapBlocker{Attr: "name"}}
	best, reports, err := s.TryBlockers(blockers, label.NewOracle(task.Gold), 10)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 || reports[0].Err == nil || !strings.Contains(reports[0].Err.Error(), "FK constraint violated") {
		t.Fatalf("best %d, reports %+v: want the dangling set refused with the FK error", best, reports)
	}
	if bad == nil || s.kept == bad {
		t.Error("the refused set was kept")
	}
}
