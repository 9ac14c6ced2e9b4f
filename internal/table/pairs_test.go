package table

import (
	"fmt"
	"testing"
)

// TestAppendPairsMatchesAppendPair: the batch API must leave the pair
// table in exactly the state repeated AppendPair calls would, including
// the sequential _id column, across multiple batches and empty batches.
func TestAppendPairsMatchesAppendPair(t *testing.T) {
	lt := New("L", StringSchema("id"))
	rt := New("R", StringSchema("id"))
	one, err := NewPairTable("one", lt, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewPairTable("batch", lt, rt, nil)
	if err != nil {
		t.Fatal(err)
	}

	var ids []PairID
	for i := 0; i < 57; i++ {
		ids = append(ids, PairID{L: fmt.Sprintf("a%d", i), R: fmt.Sprintf("b%d", i%7)})
	}
	for _, id := range ids {
		AppendPair(one, id.L, id.R)
	}
	// Split the same stream over several batches, with an empty batch in
	// the middle — the shapes blocker shard merges produce.
	AppendPairs(batch, ids[:20])
	AppendPairs(batch, nil)
	AppendPairs(batch, ids[20:21])
	AppendPairs(batch, ids[21:])

	requireSamePairs(t, one, batch)
}

// requireSamePairs fails unless batch holds one's rows and its _ids are
// sequential ints.
func requireSamePairs(t *testing.T, one, batch *Table) {
	t.Helper()
	if one.Len() != batch.Len() {
		t.Fatalf("lengths differ: %d vs %d", one.Len(), batch.Len())
	}
	for i := 0; i < one.Len(); i++ {
		ra, rb := one.Row(i), batch.Row(i)
		for j := range ra {
			if ra[j].AsString() != rb[j].AsString() {
				t.Fatalf("row %d col %d: %q vs %q", i, j, rb[j].AsString(), ra[j].AsString())
			}
		}
	}
	for i := 0; i < batch.Len(); i++ {
		if got := batch.Get(i, "_id").AsString(); got != fmt.Sprint(i) {
			t.Fatalf("_id[%d] = %q", i, got)
		}
	}
}

// TestAppendPairsAmortizesGrowth: many small batches, as the blockers'
// chunks append them, grow row storage amortized — not once per batch to
// the exact size — so a batch costs under two allocations.
func TestAppendPairsAmortizesGrowth(t *testing.T) {
	const batches, size = 64, 16
	lt, rt := New("L", StringSchema("id")), New("R", StringSchema("id"))
	ids := make([]PairID, batches*size)
	for i := range ids {
		ids[i] = PairID{L: fmt.Sprintf("a%d", i), R: fmt.Sprintf("b%d", i%7)}
	}
	one, err := NewPairTable("one", lt, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		AppendPair(one, id.L, id.R)
	}
	var batch *Table
	allocs := testing.AllocsPerRun(10, func() {
		if batch, err = NewPairTable("batch", lt, rt, nil); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			AppendPairs(batch, ids[b*size:(b+1)*size])
		}
	})
	requireSamePairs(t, one, batch)
	if allocs >= 2*batches {
		t.Fatalf("%v allocations for %d batches, want under 2 a batch", allocs, batches)
	}
}

// TestAppendPairsRejectsWrongSchema: the batch writer refuses tables that
// do not use the conventional 3-column pair schema.
func TestAppendPairsRejectsWrongSchema(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on non-pair schema")
		}
	}()
	AppendPairs(New("bad", StringSchema("x", "y")), []PairID{{L: "a", R: "b"}})
}
