package table_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// TestDownSampleGolden pins the down-sampler's choice of rows on the
// benchmark's shape (PersonDomain 2 000 × 2 000 → 1 000 × 1 000): the
// digests were recorded at the commit before the whole-tuple tokenizers
// merged, and batch_figure2's pinned confusion counts sit downstream of
// exactly these rows.
func TestDownSampleGolden(t *testing.T) {
	golden := map[int64]string{
		1: "994438849ea9bfb3",
		2: "95e4fe5405d0d7a3",
		3: "8374a41136418582",
	}
	for seed, want := range golden {
		task, err := datagen.Generate(datagen.Spec{
			Name: "golden", Domain: datagen.PersonDomain(),
			SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		aIDs, _ := as.Strings("id")
		bIDs, _ := bs.Strings("id")
		sum := sha256.Sum256([]byte(strings.Join(aIDs, ",") + "|" + strings.Join(bIDs, ",")))
		if got := hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("seed %d: sampled row IDs digest %s, recorded %s", seed, got, want)
		}
	}
}
