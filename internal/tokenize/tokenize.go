// Package tokenize implements the string tokenizers of the Magellan
// ecosystem's py_stringmatching package: whitespace, delimiter,
// alphanumeric, and q-gram tokenizers, each in set and bag (multiset)
// variants. Tokenizers feed both the similarity measures of package sim and
// the set-similarity joins of package simjoin.
package tokenize

import (
	"strings"
	"unicode"
)

// Tokenizer splits a string into tokens. Implementations must be
// deterministic and safe for concurrent use.
type Tokenizer interface {
	// Tokenize returns the tokens of s in order of appearance. When the
	// tokenizer is set-semantic (returnSet), duplicates are removed while
	// preserving first-occurrence order.
	Tokenize(s string) []string
	// Name returns a short stable identifier such as "3gram" or "ws",
	// used when naming generated features (e.g. jaccard_3gram_name).
	Name() string
}

// dedup removes duplicate tokens preserving first-occurrence order.
//
// It compacts IN PLACE: the returned slice aliases toks's backing array
// (out := toks[:0]), so the caller's slice is clobbered up to the number of
// distinct tokens. That is safe — and allocation-free — precisely because
// every caller in this package passes a slice it just built and owns
// (strings.Fields output or a fresh append-loop) and never reads toks
// afterwards. Do not call it on a slice a
// caller handed in or that anything else retains; pass a copy instead.
// TestDedupAliasesInput pins this contract.
func dedup(toks []string) []string {
	seen := make(map[string]bool, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Whitespace tokenizes on Unicode whitespace.
type Whitespace struct {
	// ReturnSet removes duplicate tokens when true.
	ReturnSet bool
}

// Tokenize implements Tokenizer.
func (w Whitespace) Tokenize(s string) []string {
	toks := strings.Fields(s)
	if w.ReturnSet {
		toks = dedup(toks)
	}
	return toks
}

// Name implements Tokenizer.
func (w Whitespace) Name() string { return "ws" }

// Delimiter tokenizes on any of a set of delimiter runes.
type Delimiter struct {
	Delims    string // each rune is a delimiter; empty means ","
	ReturnSet bool
}

// Tokenize implements Tokenizer.
func (d Delimiter) Tokenize(s string) []string {
	delims := d.Delims
	if delims == "" {
		delims = ","
	}
	raw := strings.FieldsFunc(s, func(r rune) bool { return strings.ContainsRune(delims, r) })
	toks := make([]string, 0, len(raw))
	for _, t := range raw {
		t = strings.TrimSpace(t)
		if t != "" {
			toks = append(toks, t)
		}
	}
	if d.ReturnSet {
		toks = dedup(toks)
	}
	return toks
}

// Name implements Tokenizer.
func (d Delimiter) Name() string { return "delim" }

// Alphanumeric tokenizes into maximal runs of letters and digits,
// lower-casing each token. This is the tokenizer the down-sampler and the
// overlap blocker default to.
type Alphanumeric struct {
	ReturnSet bool
}

// Tokenize implements Tokenizer.
func (a Alphanumeric) Tokenize(s string) []string {
	s = strings.ToLower(s)
	var toks []string
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			toks = append(toks, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, s[start:])
	}
	if a.ReturnSet {
		toks = dedup(toks)
	}
	return toks
}

// Name implements Tokenizer.
func (a Alphanumeric) Name() string { return "alnum" }

// QGram produces overlapping character q-grams. With Pad, the string is
// padded with q-1 '#' prefix and '$' suffix characters so boundary
// characters appear in q grams, matching py_stringmatching's default.
type QGram struct {
	Q         int // gram size; values < 1 are treated as 3
	Pad       bool
	ReturnSet bool
}

// Tokenize implements Tokenizer.
func (g QGram) Tokenize(s string) []string {
	q := g.Q
	if q < 1 {
		q = 3
	}
	if g.Pad {
		s = strings.Repeat("#", q-1) + s + strings.Repeat("$", q-1)
	}
	runes := []rune(s)
	if len(runes) < q {
		if len(runes) == 0 {
			return nil
		}
		return []string{string(runes)}
	}
	toks := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		toks = append(toks, string(runes[i:i+q]))
	}
	if g.ReturnSet {
		toks = dedup(toks)
	}
	return toks
}

// Name implements Tokenizer.
func (g QGram) Name() string {
	q := g.Q
	if q < 1 {
		q = 3
	}
	return itoa(q) + "gram"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
