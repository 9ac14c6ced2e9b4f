package table

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns with unique names.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// non-empty and unique (case-sensitive).
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error; it is intended for
// statically known schemas in tests and generators.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// StringSchema builds a schema in which every named column has KindString.
func StringSchema(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Kind: KindString}
	}
	return MustSchema(cols...)
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// Lookup returns the index of the named column, or -1 if absent.
func (s *Schema) Lookup(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s *Schema) Has(name string) bool { return s.Lookup(name) >= 0 }

// KindOf returns the kind of the named column; it returns an error naming
// the missing column otherwise.
func (s *Schema) KindOf(name string) (Kind, error) {
	i := s.Lookup(name)
	if i < 0 {
		return 0, fmt.Errorf("schema: no column %q (have %s)", name, strings.Join(s.Names(), ", "))
	}
	return s.cols[i].Kind, nil
}

// Project returns a new schema containing only the named columns, in the
// given order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.Lookup(n)
		if i < 0 {
			return nil, fmt.Errorf("schema: project: no column %q", n)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...)
}
