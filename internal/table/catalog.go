package table

import (
	"fmt"
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

// ValidatePair re-checks the FK constraints of a pair table against its base
// tables: every left id must exist in LTable and every right id in RTable.
// This is the "self-contained tool" behaviour from the paper: a command
// about to rely on catalog metadata first verifies the metadata still holds
// (another tool may have deleted base rows without updating the catalog).
func (c *Catalog) ValidatePair(pair *Table) error {
	_, err := c.Pairs(pair)
	return err
}

// Pairs runs ValidatePair's check and returns what the check looked up:
// the pair table as row indices, each pair's left and right records'
// rows in their base tables. It is the one way from a user's pair table
// to the Pairs that feature extraction and the debugger read.
func (c *Catalog) Pairs(pair *Table) (*Pairs, error) {
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
	l, r := make([]int32, len(pair.rows)), make([]int32, len(pair.rows))
	for i, row := range pair.rows {
		lid := row[lj].AsString()
		li, ok := lidx[lid]
		if !ok {
			return nil, fmt.Errorf("catalog: pair %q row %d: left id %q not in %q — FK constraint violated", pair.Name(), i, lid, meta.LTable.Name())
		}
		rid := row[rj].AsString()
		ri, ok := ridx[rid]
		if !ok {
			return nil, fmt.Errorf("catalog: pair %q row %d: right id %q not in %q — FK constraint violated", pair.Name(), i, rid, meta.RTable.Name())
		}
		l[i], r[i] = int32(li), int32(ri)
	}
	return NewPairs(meta.LTable, meta.RTable, l, r), nil
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

// PairID is one (left id, right id) candidate pair.
type PairID struct {
	L, R string
}

// PredictedPairs returns a new pair table, registered in cat, holding in
// order the pairs i of cand with y[i] == 1. y holds one label per pair.
func PredictedPairs(name string, cand *Pairs, cat *Catalog, y []int) (*Table, error) {
	if len(y) != cand.Len() {
		return nil, fmt.Errorf("table: %d predictions for %d candidate pairs", len(y), cand.Len())
	}
	var idxs []int
	for i, yi := range y {
		if yi == 1 {
			idxs = append(idxs, i)
		}
	}
	return cand.Select(idxs).Table(name, cat)
}
