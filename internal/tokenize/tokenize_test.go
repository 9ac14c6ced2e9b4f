package tokenize

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestWhitespace(t *testing.T) {
	got := Whitespace{}.Tokenize("  foo bar\tbaz  foo ")
	want := []string{"foo", "bar", "baz", "foo"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	got = Whitespace{ReturnSet: true}.Tokenize("foo bar foo")
	want = []string{"foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("set variant: got %v want %v", got, want)
	}
	if got := (Whitespace{}).Tokenize(""); len(got) != 0 {
		t.Errorf("empty input: got %v", got)
	}
}

func TestDelimiter(t *testing.T) {
	got := Delimiter{Delims: ",;"}.Tokenize("a, b;c,,d")
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	// Default delimiter is comma.
	got = Delimiter{}.Tokenize("x,y")
	if !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("default delim: got %v", got)
	}
	got = Delimiter{ReturnSet: true}.Tokenize("a,a,b")
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("set variant: got %v", got)
	}
}

func TestAlphanumeric(t *testing.T) {
	got := Alphanumeric{}.Tokenize("Dave's Auto-Shop #42")
	want := []string{"dave", "s", "auto", "shop", "42"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	got = Alphanumeric{ReturnSet: true}.Tokenize("a b a")
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("set variant: got %v", got)
	}
}

func TestQGram(t *testing.T) {
	got := QGram{Q: 2}.Tokenize("abcd")
	want := []string{"ab", "bc", "cd"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	// Padding adds boundary grams.
	got = QGram{Q: 2, Pad: true}.Tokenize("ab")
	want = []string{"#a", "ab", "b$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("padded: got %v want %v", got, want)
	}
	// Short strings yield a single token.
	got = QGram{Q: 3}.Tokenize("ab")
	if !reflect.DeepEqual(got, []string{"ab"}) {
		t.Errorf("short: got %v", got)
	}
	if got := (QGram{Q: 3}).Tokenize(""); got != nil {
		t.Errorf("empty: got %v", got)
	}
	// Q defaults to 3.
	if (QGram{}).Name() != "3gram" {
		t.Errorf("name = %q", QGram{}.Name())
	}
	got = QGram{}.Tokenize("abcd")
	if !reflect.DeepEqual(got, []string{"abc", "bcd"}) {
		t.Errorf("default q: got %v", got)
	}
	// Unicode safety: q-grams operate on runes.
	got = QGram{Q: 2}.Tokenize("héllo")
	if len(got) != 4 || got[0] != "hé" {
		t.Errorf("unicode grams: %v", got)
	}
}

func TestNames(t *testing.T) {
	cases := map[Tokenizer]string{
		Whitespace{}:   "ws",
		Delimiter{}:    "delim",
		Alphanumeric{}: "alnum",
		QGram{Q: 4}:    "4gram",
	}
	for tok, want := range cases {
		if tok.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", tok, tok.Name(), want)
		}
	}
}

// Property: q-gram count equals max(1, runeLen - q + 1) for non-empty
// unpadded strings.
func TestQGramCountProperty(t *testing.T) {
	f := func(s string) bool {
		toks := QGram{Q: 3}.Tokenize(s)
		n := len([]rune(s))
		if n == 0 {
			return len(toks) == 0
		}
		want := n - 3 + 1
		if want < 1 {
			want = 1
		}
		return len(toks) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: set-variant tokenizers return no duplicates.
func TestSetVariantNoDuplicatesProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range []Tokenizer{
			Whitespace{ReturnSet: true},
			Alphanumeric{ReturnSet: true},
			QGram{Q: 2, ReturnSet: true},
		} {
			seen := map[string]bool{}
			for _, w := range tok.Tokenize(s) {
				if seen[w] {
					return false
				}
				seen[w] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tokenizing is deterministic.
func TestTokenizeDeterministicProperty(t *testing.T) {
	f := func(s string) bool {
		a := Alphanumeric{}.Tokenize(s)
		b := Alphanumeric{}.Tokenize(s)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDedupAliasesInput pins dedup's in-place contract: the result reuses
// the input's backing array, clobbering the caller's slice. Every caller in
// this package must therefore pass a freshly built slice it owns. If this
// test starts failing because dedup copies, the doc comment on dedup (and
// this test) can simply be deleted — but callers must never start passing
// borrowed slices while it holds.
func TestDedupAliasesInput(t *testing.T) {
	in := []string{"b", "a", "b", "c"}
	out := dedup(in)
	if want := []string{"b", "a", "c"}; !reflect.DeepEqual(out, want) {
		t.Fatalf("dedup = %v, want %v", out, want)
	}
	// Same backing array: the compaction overwrote in[2].
	if &in[0] != &out[0] {
		t.Fatal("dedup no longer aliases its input; update its doc contract")
	}
	if !reflect.DeepEqual(in, []string{"b", "a", "c", "c"}) {
		t.Fatalf("input after dedup = %v; expected in-place compaction", in)
	}
}

// TestTokenizersReturnFreshSlices: the public Tokenize methods must hand
// out slices the caller may mutate freely — dedup's aliasing is an internal
// affair and must never surface through the API (e.g. by a tokenizer
// deduping a slice it doesn't own).
func TestTokenizersReturnFreshSlices(t *testing.T) {
	s := "foo bar foo baz"
	for _, tok := range []Tokenizer{
		Whitespace{ReturnSet: true},
		Delimiter{Delims: " ", ReturnSet: true},
		Alphanumeric{ReturnSet: true},
		QGram{Q: 2, ReturnSet: true},
	} {
		a := tok.Tokenize(s)
		b := tok.Tokenize(s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: non-deterministic tokenization", tok.Name())
		}
		if len(a) == 0 {
			continue
		}
		a[0] = "mutated"
		if reflect.DeepEqual(a, b) || b[0] == "mutated" {
			t.Fatalf("%s: Tokenize results share a backing array", tok.Name())
		}
	}
}
