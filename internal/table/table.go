package table

import (
	"fmt"
	"sort"
)

// Row is one record of a table; its length always equals the schema length.
type Row []Value

// Table is an in-memory relation: a named schema plus row-major data.
// It is the Go stand-in for the Pandas dataframes that PyMatcher stores
// tables in. A Table is not safe for concurrent mutation; concurrent reads
// are safe.
type Table struct {
	name   string
	schema *Schema
	rows   []Row
	// key is the name of the key column, or "" when none is declared.
	// The Magellan catalog requires most EM commands to know the key.
	key string
}

// New creates an empty table with the given name and schema.
func New(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetName renames the table.
func (t *Table) SetName(name string) { t.name = name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns the i-th row. The returned slice aliases table storage and
// must not be modified.
func (t *Table) Row(i int) Row { return t.rows[i] }

// Get returns the value at row i, named column. It panics if the column is
// absent, mirroring out-of-range slice indexing; use Schema().Has to test.
func (t *Table) Get(i int, col string) Value {
	j := t.schema.Lookup(col)
	if j < 0 {
		panic(fmt.Sprintf("table %q: no column %q", t.name, col))
	}
	return t.rows[i][j]
}

// Set replaces the value at row i, named column.
func (t *Table) Set(i int, col string, v Value) {
	j := t.schema.Lookup(col)
	if j < 0 {
		panic(fmt.Sprintf("table %q: no column %q", t.name, col))
	}
	t.rows[i][j] = v
}

// Append adds a row. The row length must match the schema.
func (t *Table) Append(r Row) error {
	if len(r) != t.schema.Len() {
		return fmt.Errorf("table %q: row has %d values, schema has %d columns", t.name, len(r), t.schema.Len())
	}
	t.rows = append(t.rows, r)
	return nil
}

// MustAppend is Append that panics on arity mismatch; for generators whose
// row shape is statically correct.
func (t *Table) MustAppend(vals ...Value) {
	if err := t.Append(Row(vals)); err != nil {
		panic(err)
	}
}

// MustSetKey is SetKey that panics on error; for fixtures and generators
// whose key column is statically known to be valid.
func (t *Table) MustSetKey(col string) {
	if err := t.SetKey(col); err != nil {
		panic(err)
	}
}

// AppendStrings adds a row of string cells, parsing each into the column's
// declared kind.
func (t *Table) AppendStrings(cells ...string) error {
	if len(cells) != t.schema.Len() {
		return fmt.Errorf("table %q: row has %d cells, schema has %d columns", t.name, len(cells), t.schema.Len())
	}
	r := make(Row, len(cells))
	for i, c := range cells {
		v, err := ParseValue(c, t.schema.Col(i).Kind)
		if err != nil {
			return fmt.Errorf("table %q col %q: %w", t.name, t.schema.Col(i).Name, err)
		}
		r[i] = v
	}
	t.rows = append(t.rows, r)
	return nil
}

// SetKey declares the named column as the table key. It validates that the
// column exists and that its values are unique and non-null — the
// "self-contained" metadata check the paper describes (tools verify their
// metadata before trusting it).
func (t *Table) SetKey(col string) error {
	if !t.schema.Has(col) {
		return fmt.Errorf("table %q: key column %q not in schema", t.name, col)
	}
	if err := t.ValidateKey(col); err != nil {
		return err
	}
	t.key = col
	return nil
}

// Key returns the declared key column name, or "".
func (t *Table) Key() string { return t.key }

// ValidateKey checks that the named column holds unique, non-null values.
func (t *Table) ValidateKey(col string) error {
	j := t.schema.Lookup(col)
	if j < 0 {
		return fmt.Errorf("table %q: no column %q", t.name, col)
	}
	seen := make(map[string]int, len(t.rows))
	for i, r := range t.rows {
		if r[j].IsNull() {
			return fmt.Errorf("table %q: key %q is null at row %d", t.name, col, i)
		}
		s := r[j].AsString()
		if prev, dup := seen[s]; dup {
			return fmt.Errorf("table %q: key %q duplicated at rows %d and %d (value %q)", t.name, col, prev, i, s)
		}
		seen[s] = i
	}
	return nil
}

// KeyIndex builds a map from key value (as string) to row index. The table
// must have a declared key.
func (t *Table) KeyIndex() (map[string]int, error) {
	if t.key == "" {
		return nil, fmt.Errorf("table %q: no key declared", t.name)
	}
	j := t.schema.Lookup(t.key)
	idx := make(map[string]int, len(t.rows))
	for i, r := range t.rows {
		idx[r[j].AsString()] = i
	}
	return idx, nil
}

// Clone returns a deep copy of the table (rows are copied; Values are
// immutable so cells are shared by value).
func (t *Table) Clone() *Table {
	out := &Table{name: t.name, schema: t.schema, key: t.key, rows: make([]Row, len(t.rows))}
	for i, r := range t.rows {
		out.rows[i] = append(Row(nil), r...)
	}
	return out
}

// Project returns a new table containing only the named columns. The key is
// preserved if it is among them.
func (t *Table) Project(names ...string) (*Table, error) {
	sch, err := t.schema.Project(names...)
	if err != nil {
		return nil, fmt.Errorf("table %q: %w", t.name, err)
	}
	idxs := make([]int, len(names))
	for i, n := range names {
		idxs[i] = t.schema.Lookup(n)
	}
	out := New(t.name, sch)
	out.rows = make([]Row, len(t.rows))
	for i, r := range t.rows {
		nr := make(Row, len(idxs))
		for k, j := range idxs {
			nr[k] = r[j]
		}
		out.rows[i] = nr
	}
	if t.key != "" && sch.Has(t.key) {
		out.key = t.key
	}
	return out, nil
}

// Select returns a new table containing the rows at the given indices, in
// order. Indices may repeat.
func (t *Table) Select(idxs []int) *Table {
	out := &Table{name: t.name, schema: t.schema, key: t.key}
	out.rows = make([]Row, len(idxs))
	for k, i := range idxs {
		out.rows[k] = t.rows[i]
	}
	return out
}

// Head returns a new table with at most n leading rows; n < 0 gives none.
func (t *Table) Head(n int) *Table {
	n = max(0, min(n, len(t.rows)))
	out := &Table{name: t.name, schema: t.schema, key: t.key}
	out.rows = append(out.rows, t.rows[:n]...)
	return out
}

// SortBy sorts rows in place by the named columns ascending.
func (t *Table) SortBy(cols ...string) error {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		j := t.schema.Lookup(c)
		if j < 0 {
			return fmt.Errorf("table %q: sort: no column %q", t.name, c)
		}
		idxs[i] = j
	}
	sort.SliceStable(t.rows, func(a, b int) bool {
		for _, j := range idxs {
			va, vb := t.rows[a][j], t.rows[b][j]
			if va.Less(vb) {
				return true
			}
			if vb.Less(va) {
				return false
			}
		}
		return false
	})
	return nil
}

// Strings returns the named column rendered as strings (nulls become "").
func (t *Table) Strings(name string) ([]string, error) {
	j := t.schema.Lookup(name)
	if j < 0 {
		return nil, fmt.Errorf("table %q: no column %q", t.name, name)
	}
	out := make([]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = r[j].AsString()
	}
	return out, nil
}
