// Package table provides the tabular-data substrate for the Magellan EM
// ecosystem: typed in-memory tables, CSV input/output, a metadata catalog
// holding key and foreign-key constraints, profiling, sampling, and the
// intelligent down-sampler used by the PyMatcher how-to guide.
//
// The paper builds PyMatcher on top of Pandas dataframes plus a stand-alone
// catalog for key/FK metadata; this package plays both roles. Tables are
// row-major and immutable-schema: rows may be appended or filtered, but the
// column set is fixed at construction.
package table

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The supported column kinds. KindString is the common case for EM data.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a tagged union holding one cell of a table. The zero Value is a
// null string.
type Value struct {
	Kind  Kind
	Null  bool
	Str   string
	Int   int64
	Float float64
	Bool  bool
}

// String returns a string Value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int returns an int Value.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float returns a float Value.
func Float(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// Bool returns a bool Value.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Null returns a null Value of the given kind.
func Null(k Kind) Value { return Value{Kind: k, Null: true} }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.Null }

// AsString renders the value as a string. Null values render as the empty
// string; this matches how EM feature functions treat missing data.
func (v Value) AsString() string {
	if v.Null {
		return ""
	}
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return ""
	}
}

// AsFloat converts the value to a float64. Null yields NaN-free 0 with
// ok=false so callers can treat missing numerics explicitly.
func (v Value) AsFloat() (f float64, ok bool) {
	if v.Null {
		return 0, false
	}
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsInt converts the value to an int64 when it is integral.
func (v Value) AsInt() (i int64, ok bool) {
	if v.Null {
		return 0, false
	}
	switch v.Kind {
	case KindInt:
		return v.Int, true
	case KindFloat:
		if v.Float == float64(int64(v.Float)) {
			return int64(v.Float), true
		}
		return 0, false
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
		if err != nil {
			return 0, false
		}
		return i, true
	default:
		return 0, false
	}
}

// Less orders values of the same kind; nulls sort first. Values of different
// kinds are ordered by kind.
func (v Value) Less(w Value) bool {
	if v.Null != w.Null {
		return v.Null
	}
	if v.Null {
		return false
	}
	if v.Kind != w.Kind {
		return v.Kind < w.Kind
	}
	switch v.Kind {
	case KindString:
		return v.Str < w.Str
	case KindInt:
		return v.Int < w.Int
	case KindFloat:
		return v.Float < w.Float
	case KindBool:
		return !v.Bool && w.Bool
	default:
		return false
	}
}

// ParseValue parses s into a Value of kind k. An empty string becomes null
// for non-string kinds, and a present-but-empty string for KindString.
func ParseValue(s string, k Kind) (Value, error) {
	switch k {
	case KindString:
		return String(s), nil
	case KindInt:
		if strings.TrimSpace(s) == "" {
			return Null(k), nil
		}
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		if strings.TrimSpace(s) == "" {
			return Null(k), nil
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindBool:
		if strings.TrimSpace(s) == "" {
			return Null(k), nil
		}
		b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(s)))
		if err != nil {
			return Value{}, fmt.Errorf("parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	default:
		return Value{}, fmt.Errorf("unknown kind %v", k)
	}
}
