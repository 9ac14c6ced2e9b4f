package table

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// rowTokens is the down-sampler's former private tokenizer, retained as
// the reference WholeTupleTokens is compared against: the set of
// lower-cased word tokens across all cells of row i, excluding the key
// column and nulls.
func rowTokens(t *Table, i int) map[string]bool {
	toks := make(map[string]bool)
	r := t.Row(i)
	for j := 0; j < t.Schema().Len(); j++ {
		col := t.Schema().Col(j)
		if col.Name == t.Key() {
			continue
		}
		if r[j].IsNull() {
			continue
		}
		s := strings.ToLower(r[j].AsString())
		start := -1
		for k, c := range s {
			if unicode.IsLetter(c) || unicode.IsDigit(c) {
				if start < 0 {
					start = k
				}
			} else if start >= 0 {
				toks[s[start:k]] = true
				start = -1
			}
		}
		if start >= 0 {
			toks[s[start:]] = true
		}
	}
	return toks
}

// TestWholeTupleTokensMatchesRowTokens: the one whole-tuple tokenizer
// yields, row for row, exactly the reference's token set — on a table with
// a key column, nulls, non-string kinds, mixed case, punctuation, repeated
// tokens and non-ASCII cells — and the same with no key declared.
func TestWholeTupleTokensMatchesRowTokens(t *testing.T) {
	sch := MustSchema(
		Column{Name: "id", Kind: KindString},
		Column{Name: "name", Kind: KindString},
		Column{Name: "city", Kind: KindString},
		Column{Name: "age", Kind: KindInt},
		Column{Name: "score", Kind: KindFloat},
	)
	tab := New("T", sch)
	tab.MustAppend(String("Key-1"), String("Dave's Auto-Shop #42"), String("MADISON, wi"), Int(42), Float(3.5))
	tab.MustAppend(String("Key-2"), Null(KindString), String("São Paulo—Zürich"), Null(KindInt), Float(-0.25))
	tab.MustAppend(String("Key-3"), String("İstanbul ΑΘΗΝΑ Łódź 東京 café"), String(""), Int(7), Null(KindFloat))
	tab.MustAppend(String("Key-4"), String("acme ACME Acme"), String("acme 42"), Int(42), Float(42))
	tab.MustAppend(String("Key-5"), Null(KindString), Null(KindString), Null(KindInt), Null(KindFloat))
	for _, key := range []string{"", "id"} {
		if key != "" {
			tab.MustSetKey(key)
		}
		got := WholeTupleTokens(tab)
		if len(got) != tab.Len() {
			t.Fatalf("key %q: %d token sets for %d rows", key, len(got), tab.Len())
		}
		for i, toks := range got {
			want := make([]string, 0)
			for tok := range rowTokens(tab, i) {
				want = append(want, tok)
			}
			sort.Strings(want)
			sorted := append([]string{}, toks...)
			sort.Strings(sorted)
			if !reflect.DeepEqual(sorted, want) {
				t.Errorf("key %q row %d: tokens %q, reference %q", key, i, sorted, want)
			}
		}
		if hasKey := strings.Contains(strings.Join(got[0], " "), "key"); hasKey != (key == "") {
			t.Errorf("key %q: row 0 tokens %q; the key cell counts only while no key is declared", key, got[0])
		}
	}
	// The strings under the tokens: cells as written, nulls skipped, each
	// followed by one space.
	if got := WholeTupleStrings(tab); got[1] != "São Paulo—Zürich -0.25 " || got[4] != "" {
		t.Errorf("whole-tuple strings %q", got)
	}
}
