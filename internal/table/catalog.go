package table

import (
	"fmt"
	"slices"
	"sync"
)

// PairMeta records the provenance of a candidate-set (pair) table: which
// base tables its ltable/rtable id columns refer to. This is the key-FK
// metadata the paper stores in a stand-alone catalog so that pair tables
// can carry only (A.id, B.id) instead of all attributes.
type PairMeta struct {
	LTable *Table // left base table
	RTable *Table // right base table
	LID    string // column of the pair table holding left keys
	RID    string // column of the pair table holding right keys
}

// Catalog stores metadata about tables — declared keys and FK relationships
// of pair tables to their base tables — outside the tables themselves,
// mirroring the global catalog Q of the paper. It is safe for concurrent
// use.
type Catalog struct {
	mu    sync.RWMutex
	pairs map[*Table]PairMeta
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{pairs: make(map[*Table]PairMeta)}
}

// RegisterPair records that pair is a candidate-set table whose LID/RID
// columns are foreign keys into lt and rt respectively. Both base tables
// must have declared keys, and the pair table must contain the id columns.
func (c *Catalog) RegisterPair(pair *Table, meta PairMeta) error {
	if meta.LTable == nil || meta.RTable == nil {
		return fmt.Errorf("catalog: pair %q: nil base table", pair.Name())
	}
	if meta.LTable.Key() == "" || meta.RTable.Key() == "" {
		return fmt.Errorf("catalog: pair %q: base tables must have keys", pair.Name())
	}
	if !pair.Schema().Has(meta.LID) || !pair.Schema().Has(meta.RID) {
		return fmt.Errorf("catalog: pair %q: missing id columns %q/%q", pair.Name(), meta.LID, meta.RID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pairs[pair] = meta
	return nil
}

// PairMeta returns the recorded metadata for a pair table.
func (c *Catalog) PairMeta(pair *Table) (PairMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.pairs[pair]
	return m, ok
}

// Drop removes any metadata for the table.
func (c *Catalog) Drop(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pairs, t)
}

// ValidatePair re-checks the FK constraints of a pair table against its base
// tables: every left id must exist in LTable and every right id in RTable.
// This is the "self-contained tool" behaviour from the paper: a command
// about to rely on catalog metadata first verifies the metadata still holds
// (another tool may have deleted base rows without updating the catalog).
func (c *Catalog) ValidatePair(pair *Table) error {
	_, err := c.PairRows(pair)
	return err
}

// PairRows runs ValidatePair's check and returns what the check looked
// up: for each row of the pair table, the row indices of its left and
// right records in their base tables.
func (c *Catalog) PairRows(pair *Table) ([][2]int32, error) {
	meta, ok := c.PairMeta(pair)
	if !ok {
		return nil, fmt.Errorf("catalog: pair %q: not registered", pair.Name())
	}
	lidx, err := meta.LTable.KeyIndex()
	if err != nil {
		return nil, fmt.Errorf("catalog: pair %q: %w", pair.Name(), err)
	}
	ridx, err := meta.RTable.KeyIndex()
	if err != nil {
		return nil, fmt.Errorf("catalog: pair %q: %w", pair.Name(), err)
	}
	// RegisterPair saw both columns, and a schema never changes.
	lj, rj := pair.schema.Lookup(meta.LID), pair.schema.Lookup(meta.RID)
	out := make([][2]int32, len(pair.rows))
	for i, row := range pair.rows {
		l := row[lj].AsString()
		li, ok := lidx[l]
		if !ok {
			return nil, fmt.Errorf("catalog: pair %q row %d: left id %q not in %q — FK constraint violated", pair.Name(), i, l, meta.LTable.Name())
		}
		r := row[rj].AsString()
		ri, ok := ridx[r]
		if !ok {
			return nil, fmt.Errorf("catalog: pair %q row %d: right id %q not in %q — FK constraint violated", pair.Name(), i, r, meta.RTable.Name())
		}
		out[i] = [2]int32{int32(li), int32(ri)}
	}
	return out, nil
}

// DefaultPairSchema returns the conventional schema for a candidate set:
// (_id:int, ltable_id:string, rtable_id:string).
func DefaultPairSchema() *Schema {
	return MustSchema(
		Column{Name: "_id", Kind: KindInt},
		Column{Name: "ltable_id", Kind: KindString},
		Column{Name: "rtable_id", Kind: KindString},
	)
}

// NewPairTable creates a candidate-set table over lt and rt with the
// conventional schema, declares _id as its key, and registers it in the
// catalog when one is supplied (cat may be nil).
func NewPairTable(name string, lt, rt *Table, cat *Catalog) (*Table, error) {
	p := New(name, DefaultPairSchema())
	p.key = "_id"
	if cat != nil {
		if err := cat.RegisterPair(p, PairMeta{LTable: lt, RTable: rt, LID: "ltable_id", RID: "rtable_id"}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// AppendPair appends one (lid, rid) candidate to a pair table with the
// conventional schema, assigning a sequential _id.
func AppendPair(pair *Table, lid, rid string) {
	pair.MustAppend(Int(int64(pair.Len())), String(lid), String(rid))
}

// PairID is one (left id, right id) candidate row for batch appends.
type PairID struct {
	L, R string
}

// AppendPairs appends every id pair to a pair table with the conventional
// schema in one call, assigning sequential _ids. It grows row storage as
// append does, amortized over batches, and carves all cells from a single
// backing allocation, so blocker inner loops pay about one allocation per
// batch instead of two per pair. Chunk buffers appended in chunk order
// through this call reproduce the serial AppendPair output exactly.
func AppendPairs(pair *Table, ids []PairID) {
	if len(ids) == 0 {
		return
	}
	if pair.schema.Len() != 3 {
		panic(fmt.Sprintf("table %q: AppendPairs needs the conventional 3-column pair schema, have %d columns", pair.name, pair.schema.Len()))
	}
	base := len(pair.rows)
	pair.rows = slices.Grow(pair.rows, len(ids))
	cells := make([]Value, 3*len(ids))
	for k, id := range ids {
		r := cells[3*k : 3*k+3 : 3*k+3]
		r[0], r[1], r[2] = Int(int64(base+k)), String(id.L), String(id.R)
		pair.rows = append(pair.rows, Row(r))
	}
}

// PredictedPairs returns a new pair table holding, in order, the id pairs
// of the rows i of cand with y[i] == 1 (SelectedPairs over those rows).
func PredictedPairs(name string, cand *Table, cat *Catalog, y []int) (*Table, error) {
	var rows []int
	for i, yi := range y {
		if yi == 1 {
			rows = append(rows, i)
		}
	}
	return SelectedPairs(name, cand, cat, rows)
}

// SelectedPairs returns a new pair table holding the id pairs of cand's
// rows at the given indices, in that order, appended in one batch. cand
// must be registered in cat; the result is registered over the same base
// tables.
func SelectedPairs(name string, cand *Table, cat *Catalog, rows []int) (*Table, error) {
	meta, ok := cat.PairMeta(cand)
	if !ok {
		return nil, fmt.Errorf("catalog: pair %q: not registered", cand.Name())
	}
	out, err := NewPairTable(name, meta.LTable, meta.RTable, cat)
	if err != nil {
		return nil, err
	}
	kept := make([]PairID, len(rows))
	for k, i := range rows {
		kept[k] = PairID{L: cand.Get(i, meta.LID).AsString(), R: cand.Get(i, meta.RID).AsString()}
	}
	AppendPairs(out, kept)
	return out, nil
}
