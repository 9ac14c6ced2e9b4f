package table

import (
	"slices"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/intern"
	"repro/internal/parallel"
	"repro/internal/tokenize"
)

// WholeTupleStrings returns, for every row of t, "the whole tuple" as one
// string: the non-key cells in schema order, nulls skipped, each followed
// by a space (ids should not drive overlap, so the key column is left out).
func WholeTupleStrings(t *Table) []string {
	kj := t.schema.Lookup(t.key)
	out := make([]string, len(t.rows))
	var sb strings.Builder
	for i, r := range t.rows {
		out[i] = wholeTupleString(&sb, r, kj)
	}
	return out
}

// wholeTupleString is one row's WholeTupleStrings string, built in sb.
func wholeTupleString(sb *strings.Builder, r Row, kj int) string {
	sb.Reset()
	for j, v := range r {
		if j == kj || v.IsNull() {
			continue
		}
		sb.WriteString(v.AsString())
		sb.WriteByte(' ')
	}
	return sb.String()
}

// WholeTupleTokens returns, for every row of t, its WholeTupleStrings
// string as a token set: lower-cased maximal runs of letters and digits,
// each token once in order of first appearance. It is the one definition
// the down-sampler, the blocking debugger, the whole-tuple overlap blocker,
// Falcon's sampler and Smurf share.
func WholeTupleTokens(t *Table) [][]string { return wholeTupleTokens(t, 1) }

// tokenChunk is how many rows a whole-tuple tokenizing worker claims at a
// time, and so the smallest table worth fanning out.
const tokenChunk = 256

// wholeTupleTokens is WholeTupleTokens across workers (the Workers knob),
// each claiming tokenChunk rows at a time.
func wholeTupleTokens(t *Table, workers int) [][]string {
	tok := tokenize.Alphanumeric{ReturnSet: true}
	kj := t.schema.Lookup(t.key)
	chunks, err := parallel.Chunks(workers, t.Len(), tokenChunk, func(_, lo, hi int) ([][]string, error) {
		out := make([][]string, hi-lo)
		var sb strings.Builder
		for i := range out {
			out[i] = tok.Tokenize(wholeTupleString(&sb, t.rows[lo+i], kj))
		}
		return out, nil
	})
	if err != nil {
		panic(err) // the chunk function returns no error
	}
	return slices.Concat(chunks...)
}

// WholeTupleIndex is the inverted index over one table's whole-tuple
// token sets that the down-sampler and the blocking debugger probe: each
// row's set interned into one dictionary, and the rows holding each token.
// Sets interns into that dictionary, so it is one caller's at a time;
// Probe only reads the index, so any number of goroutines may probe at
// once, each with a Counter of its own.
type WholeTupleIndex struct {
	dict    *intern.Dict
	rows    [][]uint32 // rows[i]: row i's ascending token-ID set
	posts   []*bitvec.Postings
	workers int
}

// NewWholeTupleIndex indexes the whole-tuple token sets of t's rows,
// tokenizing rows across workers (the Workers knob, DESIGN.md §5), here
// and in Sets.
func NewWholeTupleIndex(t *Table, workers int) *WholeTupleIndex {
	x := &WholeTupleIndex{dict: intern.NewDict(), workers: workers}
	x.rows = x.Sets(t)
	x.posts = bitvec.BuildPostings(x.rows, x.dict.Len())
	return x
}

// Sets returns the whole-tuple token sets of u's rows, interned into the
// index's dictionary: a token the indexed table lacks gets an ID of its
// own that no posting holds, so set sizes stay exact. The rows are
// tokenized across the index's workers and interned in row order, so the
// IDs are the same at any worker count.
func (x *WholeTupleIndex) Sets(u *Table) [][]uint32 {
	toks := wholeTupleTokens(u, x.workers)
	out := make([][]uint32, len(toks))
	for i, tt := range toks {
		out[i] = x.dict.SortedSet(tt)
	}
	return out
}

// Row returns the token set of the indexed table's row i.
func (x *WholeTupleIndex) Row(i int) []uint32 { return x.rows[i] }

// Probe resets c and counts, for every indexed row, the tokens of set
// (from Sets) it holds. It skips stop-word-like tokens — on more than a
// tenth of the rows, plus 50 — which tell rows apart least and cost most.
func (x *WholeTupleIndex) Probe(set []uint32, c *bitvec.Counter) {
	n := len(x.rows)
	c.Reset(n)
	for _, t := range set {
		if int(t) < len(x.posts) && x.posts[t].Len() <= n/10+50 {
			c.AddPostings(x.posts[t], 0, uint32(n))
		}
	}
}
