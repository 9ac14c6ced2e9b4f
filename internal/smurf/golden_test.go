package smurf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/datagen"
	"repro/internal/simjoin"
	"repro/internal/table"
)

// goldenPool builds the learning pool MatchStrings learns from, by the
// same steps (tokenize, overlap-join, sample).
func goldenPool(l, r []Item, n int, seed int64) (*active.Pool, error) {
	lrecs, lstr := records(l)
	rrecs, rstr := records(r)
	cands, err := simjoin.OverlapJoin(lrecs, rrecs, 1)
	if err != nil {
		return nil, err
	}
	return learningPool(lrecs, rrecs, cands, lstr, rstr, n, rand.New(rand.NewSource(seed))), nil
}

// TestLearningPoolGolden pins Smurf's learning pool — pair ids and feature
// rows — on the three §5.3 comparison tasks (experiments.smurfTasks at seed
// 1, SampleSize 1000). The digests were recorded at the commit before the
// sampler moved into internal/active.
func TestLearningPoolGolden(t *testing.T) {
	specs := []datagen.Spec{
		{Name: "company_names", Domain: datagen.VendorDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: 42},
		{Name: "person_names", Domain: datagen.PersonDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: 43},
		{Name: "book_titles", Domain: datagen.BookDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: 44},
	}
	golden := map[string]string{
		"company_names": "2844ba1ae154821a",
		"person_names":  "ee50d709a2a0b4b8",
		"book_titles":   "8892a6b1e0dfa5e4",
	}
	items := func(tb *table.Table) []Item {
		out := make([]Item, tb.Len())
		for i := range out {
			var sb strings.Builder
			for _, c := range tb.Schema().Names() {
				if c != "id" {
					sb.WriteString(tb.Get(i, c).AsString())
					sb.WriteByte(' ')
				}
			}
			out[i] = Item{ID: tb.Get(i, "id").AsString(), Str: sb.String()}
		}
		return out
	}
	for _, spec := range specs {
		task, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := goldenPool(items(task.A), items(task.B), 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Validate(); err != nil {
			t.Fatal(err)
		}
		if pool.Len() != 1000 {
			t.Fatalf("%s: pool has %d pairs, want 1000", spec.Name, pool.Len())
		}
		var sb strings.Builder
		for i, x := range pool.X {
			fmt.Fprintf(&sb, "%s,%s", pool.LIDs[i], pool.RIDs[i])
			for _, v := range x {
				fmt.Fprintf(&sb, ",%016x", math.Float64bits(v))
			}
			sb.WriteByte('\n')
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:8]); got != golden[spec.Name] {
			t.Errorf("%s: pool digest %s, recorded %s", spec.Name, got, golden[spec.Name])
		}
	}
}
