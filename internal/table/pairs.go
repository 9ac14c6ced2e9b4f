package table

import "fmt"

// Pairs is a candidate set as row indices: pair i is row L[i] of LTable
// and row R[i] of RTable. It is what blockers produce and what feature
// extraction, the blocking debugger and a production run read; the
// Magellan pair table (Table) is built from it only where a user reads
// one. A Pairs describes its base tables' rows as they were when it was
// made: one whose base table has since gained or lost rows is refused
// (Validate), and reordering a base table's rows silently invalidates it.
type Pairs struct {
	LTable, RTable *Table
	L, R           []int32
	// nl and nr are the base tables' row counts when the set was made.
	nl, nr int
}

// NewPairs returns the candidate set pairing row l[i] of lt with row r[i]
// of rt, recording both tables' row counts; it takes ownership of l and r.
func NewPairs(lt, rt *Table, l, r []int32) *Pairs {
	return &Pairs{LTable: lt, RTable: rt, L: l, R: r, nl: lt.Len(), nr: rt.Len()}
}

// Len returns the number of pairs.
func (p *Pairs) Len() int { return len(p.L) }

// IDs returns the key values of pair i's left and right records.
func (p *Pairs) IDs(i int) (lid, rid string) {
	return p.LTable.Get(int(p.L[i]), p.LTable.key).AsString(), p.RTable.Get(int(p.R[i]), p.RTable.key).AsString()
}

// Select returns the pairs at the given indices, in order, over the same
// base tables as they were when p was made.
func (p *Pairs) Select(idxs []int) *Pairs {
	out := &Pairs{LTable: p.LTable, RTable: p.RTable, L: make([]int32, len(idxs)), R: make([]int32, len(idxs)), nl: p.nl, nr: p.nr}
	for k, i := range idxs {
		out.L[k], out.R[k] = p.L[i], p.R[i]
	}
	return out
}

// Validate refuses a set whose base tables gained or lost rows since it
// was made, or that names a row outside them.
func (p *Pairs) Validate() error {
	if len(p.L) != len(p.R) {
		return fmt.Errorf("pairs over %q × %q: %d left rows, %d right", p.LTable.name, p.RTable.name, len(p.L), len(p.R))
	}
	if p.LTable.Len() != p.nl || p.RTable.Len() != p.nr {
		return fmt.Errorf("pairs over %q × %q: made over %d × %d rows, the tables now have %d × %d", p.LTable.name, p.RTable.name, p.nl, p.nr, p.LTable.Len(), p.RTable.Len())
	}
	for i := range p.L {
		if uint(p.L[i]) >= uint(p.nl) || uint(p.R[i]) >= uint(p.nr) {
			return fmt.Errorf("pairs over %q × %q: pair %d names rows %d × %d, outside the tables — FK constraint violated", p.LTable.name, p.RTable.name, i, p.L[i], p.R[i])
		}
	}
	return nil
}

// Table builds the conventional (_id, ltable_id, rtable_id) pair table of
// the set, _ids sequential, registered in cat over its base tables (cat
// may be nil). Both base tables must have keys.
func (p *Pairs) Table(name string, cat *Catalog) (*Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lj, rj := p.LTable.schema.Lookup(p.LTable.key), p.RTable.schema.Lookup(p.RTable.key)
	if lj < 0 || rj < 0 {
		return nil, fmt.Errorf("table: pair %q: base tables must have keys", name)
	}
	out, err := NewPairTable(name, p.LTable, p.RTable, cat)
	if err != nil {
		return nil, err
	}
	// One backing array for every cell: one allocation, not one per pair.
	cells := make([]Value, 3*len(p.L))
	out.rows = make([]Row, len(p.L))
	for i := range out.rows {
		r := cells[3*i : 3*i+3 : 3*i+3]
		r[0], r[1], r[2] = Int(int64(i)), String(p.LTable.rows[p.L[i]][lj].AsString()), String(p.RTable.rows[p.R[i]][rj].AsString())
		out.rows[i] = r
	}
	return out, nil
}
